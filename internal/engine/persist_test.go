package engine_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/readsim"
	"casa/internal/smem"
)

// nonPersisters documents why each engine without Factory.NewEmpty gets
// away with rebuilding from FASTA, mirroring the allocation suite's
// excuse map: an engine may only skip persistence for a reason stated
// here, and a stale excuse (the engine learned to persist) fails too.
var nonPersisters = map[string]string{
	"brute":    "definition-based scan of the raw reference; there is no index to persist",
	"ert":      "radix tree builds in one linear pass over the reference; rebuild is as fast as loading",
	"genax":    "seed hash table builds in one linear pass; rebuild is as fast as loading",
	"gencache": "seed hash table builds in one linear pass; rebuild is as fast as loading",
}

func TestIndexPersistenceCoverage(t *testing.T) {
	for _, f := range engine.List() {
		base := strings.TrimPrefix(f.Name, "sharded:")
		_, excused := nonPersisters[base]
		if f.NewEmpty == nil && !excused {
			t.Errorf("%s: does not persist and carries no documented excuse", f.Name)
		}
		if f.NewEmpty != nil && excused {
			t.Errorf("%s: persists now; drop its stale excuse", f.Name)
		}
	}
}

// TestIndexRoundTripSMEMsIdentical pins the acceptance criterion at the
// engine layer: for every persisting engine, an instance loaded from a
// serialized index produces per-read SMEM sets identical to the fresh
// FASTA-built instance that wrote it (the CLI smoke extends this to
// byte-identical casa-smem reports).
func TestIndexRoundTripSMEMsIdentical(t *testing.T) {
	ref := testRef(t)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(16, 5)))
	chroms := []idxio.Chromosome{{Name: "chr1", Start: 0, Length: int64(len(ref))}}
	for _, f := range engine.List() {
		opt := engine.Options{MinSMEM: 19, TableK: 8, Shards: 2}
		built, err := engine.New(f.Name, ref, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if f.NewEmpty == nil {
			if err := engine.SaveIndex(&bytes.Buffer{}, built, opt, chroms); err == nil {
				t.Errorf("%s: SaveIndex should fail for a non-persisting engine", f.Name)
			}
			continue
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, chroms); err != nil {
			t.Fatalf("%s: SaveIndex: %v", f.Name, err)
		}
		loaded, hdr, err := engine.LoadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: LoadIndex: %v", f.Name, err)
		}
		if hdr.Engine != f.Name || hdr.MinSMEM != 19 || len(hdr.Chromosomes) != 1 ||
			hdr.Chromosomes[0] != chroms[0] {
			t.Fatalf("%s: header round trip: %+v", f.Name, hdr)
		}
		if loaded.Name() != built.Name() {
			t.Fatalf("%s: loaded engine is %q", f.Name, loaded.Name())
		}
		want := seedAll(built, reads)
		got := seedAll(loaded, reads)
		for i := range reads {
			if !smem.Equal(want[i], got[i]) {
				t.Fatalf("%s read %d:\nfresh  %v\nloaded %v", f.Name, i, want[i], got[i])
			}
		}

		// The container must also survive an inspection pass.
		hdr2, infos, err := idxio.ReadInfo(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadInfo: %v", f.Name, err)
		}
		if hdr2.Engine != f.Name || len(infos) == 0 {
			t.Fatalf("%s: ReadInfo: engine %q, %d sections", f.Name, hdr2.Engine, len(infos))
		}
	}
}

func seedAll(e engine.Engine, reads []dna.Sequence) [][]smem.Match {
	c := e.Clone()
	act := c.SeedTrace(reads, nil, 0)
	return c.SMEMs(c.Reduce(reads, []engine.Activity{act}))
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, _, err := engine.LoadIndex(bytes.NewReader([]byte("not an index at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// A valid container naming an unknown engine must list the registry.
	var buf bytes.Buffer
	w, err := idxio.NewWriter(&buf, idxio.Header{Engine: "warp-drive"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "casa") {
		t.Fatalf("err = %v", err)
	}
}

// A truncated container must fail cleanly on load, whatever the engine.
func TestLoadIndexRejectsTruncation(t *testing.T) {
	ref := testRef(t)
	for _, name := range []string{"casa", "cpu", "fmindex"} {
		opt := engine.Options{MinSMEM: 19}
		built, err := engine.New(name, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for _, cut := range []int{len(data) / 3, len(data) - 7} {
			if _, _, err := engine.LoadIndex(bytes.NewReader(data[:cut])); err == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
	}
}

// pinnedRef is a fixed 3000-base reference from a xorshift generator, so
// the container hashes below depend on the encoding alone.
func pinnedRef() dna.Sequence {
	ref := make(dna.Sequence, 3000)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range ref {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ref[i] = dna.Base(x >> 62)
	}
	return ref
}

// TestPersistedBytesPinned pins the SHA-256 of the fmindex, cpu and
// sharded:fmindex containers for pinnedRef: the FM-index payloads and
// the shard geometry share idxio's packed-base and int32-array codecs
// with casa, and those must leave their bytes as they were.
func TestPersistedBytesPinned(t *testing.T) {
	ref := pinnedRef()
	chroms := []idxio.Chromosome{{Name: "pin", Start: 0, Length: int64(len(ref))}}
	for _, tc := range []struct{ name, sum string }{
		{"fmindex", "8319c4dc87c62a42b6a2e07b20693af2dd9808fb89cadd1a1a6dca0b49ddd805"},
		{"cpu", "bf4e8b2731a3c825fa020387cd4319070ccdd31c2effdecfc333f71c564467b5"},
		{"sharded:fmindex", "83b7e6ba3614c5935ccd3347a8cf21cfa2201378a3a8437cb32c60edb08c8fc6"},
	} {
		opt := engine.Options{MinSMEM: 19, Shards: 3}
		e, err := engine.New(tc.name, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, e, opt, chroms); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sum {
			t.Errorf("%s container SHA-256 = %s, want %s", tc.name, got, tc.sum)
		}
	}
}

// TestLoadIndexRejectsParentFormat pins the format break: a casa
// container from before the three-section encoding held one
// "casa/accelerator" section with its own nested framing, and loading it
// now fails with an error naming that section rather than misreading it.
func TestLoadIndexRejectsParentFormat(t *testing.T) {
	var buf bytes.Buffer
	w, err := idxio.NewWriter(&buf, idxio.Header{Engine: "casa", MinSMEM: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("casa/accelerator", func(sw io.Writer) error {
		_, err := sw.Write(make([]byte, 96))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `"casa/accelerator"`) {
		t.Fatalf("parent-format container: err = %v, want one naming casa/accelerator", err)
	}
}
