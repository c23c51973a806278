package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// TestChromeExportBytesPinned pins the exact bytes of both Chrome exports
// for one fixed span stream: the cycle-domain casa-trace/v1 document and
// the wall-domain casa-walltrace/v1 document share their pid/tid layout
// and metadata events, and this keeps that shared layout byte-stable.
func TestChromeExportBytesPinned(t *testing.T) {
	tr := New(PolicyAll, 0)
	for _, proc := range []string{"fmindex", "casa"} {
		b := tr.NewBuffer(proc)
		for r := 0; r < 4; r++ {
			emitRead(b, r, int64(10+7*r))
			b.Emit(r, "p01", "smem", 3, int64(r))
		}
		b.EmitSystem("io", "load", 0, 42)
	}
	var cyc bytes.Buffer
	if err := WriteChrome(&cyc, tr.Spans()); err != nil {
		t.Fatal(err)
	}

	w := NewWall(0)
	w.Record("casa-serve", "running", "run-b", wallAt(500), 300*time.Microsecond)
	w.Record("casa-serve", "received", "run-a", wallAt(0), 100*time.Microsecond)
	w.Record("casa-serve", "queued", "run-a", wallAt(100), 400*time.Microsecond)
	w.Record(WallWorkerProc(1), "casa", WallShardName(0, 0, 8), wallAt(150), 250*time.Microsecond)
	w.Record(WallHostProc, "casa", "reduce", wallAt(420), 30*time.Microsecond)
	var wall bytes.Buffer
	if err := WriteChromeWall(&wall, w.Spans(), 3); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"cycle", cyc.Bytes(), "68cf345c93f6f4fe71082ba42933d6dc4a596a1ecef8bced6808b47abf3e7dae"},
		{"wall", wall.Bytes(), "c58148b17503d1b6e4c440cbcdad8afee7d48c006f366385bd4132d720f6d598"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s export sha256 = %s, want %s\n%s", c.name, got, c.want, c.data)
		}
	}
}
