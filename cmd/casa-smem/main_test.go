package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"casa/internal/cli/clitest"
)

func TestConflictMatrix(t *testing.T) {
	clitest.ConflictMatrix(t, context.Background(), "casa-smem", run)
}

// report runs casa-smem -json and decodes its report without run_id.
func report(t *testing.T, ctx context.Context, f *clitest.Fixture, args string) (int, map[string]any) {
	t.Helper()
	code, stdout, stderr := f.Run(ctx, run, args+" -reads $READS -json")
	var rep map[string]any
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	if rep["run_id"] == "" {
		t.Errorf("report has no run_id")
	}
	delete(rep, "run_id")
	return code, rep
}

// TestIndexReportMatchesRef: a run from the prebuilt index reports
// exactly what a run from the FASTA does, metrics included.
func TestIndexReportMatchesRef(t *testing.T) {
	f := clitest.NewFixture(t)
	code, fromRef := report(t, context.Background(), f, "-ref $REF")
	if code != 0 {
		t.Fatalf("-ref run exited %d", code)
	}
	// The ticker and watchdog run alongside; their records go to stderr.
	code, fromIndex := report(t, context.Background(), f, "-index $INDEX -progress 1ms -stall-timeout 1m -metrics")
	if code != 0 {
		t.Fatalf("-index run exited %d", code)
	}
	if fromRef["reads"] != float64(f.NReads) {
		t.Errorf("reads = %v, want %d", fromRef["reads"], f.NReads)
	}
	if !reflect.DeepEqual(fromRef, fromIndex) {
		t.Errorf("reports differ:\n-ref:   %v\n-index: %v", fromRef, fromIndex)
	}
}

// TestCancelledRunReportsInterrupted: a run whose context is already
// cancelled still reports (an empty prefix) and exits 130.
func TestCancelledRunReportsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, rep := report(t, ctx, clitest.NewFixture(t), "-ref $REF")
	if code != 130 || rep["interrupted"] != true {
		t.Errorf("exit %d, interrupted %v; want 130, true", code, rep["interrupted"])
	}
}
