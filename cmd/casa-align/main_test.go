package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"casa/internal/cli/clitest"
)

func TestConflictMatrix(t *testing.T) {
	clitest.ConflictMatrix(t, context.Background(), "casa-align", run)
}

// TestOneRecordPerRead: single-end alignment writes exactly one SAM
// record per read, in input order.
func TestOneRecordPerRead(t *testing.T) {
	f := clitest.NewFixture(t)
	if code, _, stderr := f.Run(context.Background(), run, "-ref $REF -reads $READS -out $OUT"); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	sam, err := os.ReadFile(filepath.Join(f.Dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(sam)), "\n") {
		if !strings.HasPrefix(line, "@") {
			names = append(names, strings.SplitN(line, "\t", 2)[0])
		}
	}
	if len(names) != f.NReads {
		t.Fatalf("%d SAM records, want %d", len(names), f.NReads)
	}
	for i, name := range names {
		if want := "r" + strconv.Itoa(i); name != want {
			t.Fatalf("record %d is %s, want %s", i, name, want)
		}
	}
}
