package cli

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
)

// clock is the fake time the slow-open engine advances by an hour.
var clock = time.Unix(1_700_000_000, 0)

func init() {
	engine.Register(engine.Factory{
		Name:        "slow-open",
		Description: "brute, but its build takes an hour of fake time",
		New: func(ref dna.Sequence, opt engine.Options) (engine.Engine, error) {
			clock = clock.Add(time.Hour)
			return engine.New("brute", ref, opt)
		},
	})
}

// writeRef writes a random one-chromosome FASTA and returns its path.
func writeRef(t *testing.T) string {
	rng := rand.New(rand.NewSource(3))
	ref := make(dna.Sequence, 5000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	path := filepath.Join(t.TempDir(), "ref.fa")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(">chr1\n%s\n", ref)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openRun starts a run recording a wall trace, opens src through it and
// returns the run and the names of the recorded host phases.
func openRun(t *testing.T, src *Source, pool *batch.Options) (*Run, []string) {
	t.Helper()
	c := New("casa-test", io.Discard, io.Discard)
	tel := Telemetry{LogFlags: LogFlags{Level: "info", Format: "text"}, Wall: "unused"}
	r, err := c.Start(&tel, src.Engine)
	if err != nil {
		t.Fatal(err)
	}
	r.now = func() time.Time { return clock }
	if err := src.Resolve(c.Flags); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(src, pool, 10); err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, s := range r.Wall.Spans() {
		phases = append(phases, s.Name)
	}
	return r, phases
}

// TestTrackingStartsAfterOpen: the progress tracker starts once the
// engine is open, so its elapsed time and host rates leave the build
// out, and the pool gets every sink of the run.
func TestTrackingStartsAfterOpen(t *testing.T) {
	start := clock
	var pool batch.Options
	r, phases := openRun(t, &Source{Ref: writeRef(t), Engine: "slow-open"}, &pool)
	if clock.Sub(start) != time.Hour {
		t.Fatalf("the engine build did not run")
	}
	if s := r.Tracker.Snapshot(); s.ElapsedSeconds != 0 || s.TotalReads != 10 {
		t.Errorf("snapshot elapsed %vs, total %d; want 0s (the open excluded), 10", s.ElapsedSeconds, s.TotalReads)
	}
	if pool.Progress != r.Tracker || pool.Metrics != r.Metrics || pool.Wall != r.Wall {
		t.Errorf("pool sinks not attached: %+v", pool)
	}
	if want := []string{"load", "build"}; !reflect.DeepEqual(phases, want) {
		t.Errorf("phases %v, want %v", phases, want)
	}
}

// TestIndexOpenPhase: decoding a prebuilt index is its own phase.
func TestIndexOpenPhase(t *testing.T) {
	path := writeIndex(t, writeRef(t), "fmindex", engine.Options{})
	var pool batch.Options
	if _, phases := openRun(t, &Source{Index: path, Engine: "casa"}, &pool); !reflect.DeepEqual(phases, []string{"index-load"}) {
		t.Errorf("phases %v, want [index-load]", phases)
	}
}
