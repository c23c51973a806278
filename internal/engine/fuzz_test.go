package engine_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/smem"
)

// fuzzCASA is a small casa engine, two partitions of at most 40 bases
// at k=7, and a few reads sampled from its reference. The positions
// payload stays under 300 bytes: the fuzzer's minimizer is quadratic in
// the input length.
func fuzzCASA(t testing.TB) (engine.Engine, []dna.Sequence) {
	ref := pinnedRef()[:70]
	cfg := core.DefaultConfig()
	cfg.K, cfg.M, cfg.MinSMEM, cfg.Stride, cfg.Groups = 7, 4, 10, 5, 4
	cfg.PartitionBases = 40
	a, err := core.NewWithOverlap(ref, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for start := 0; start+24 <= len(ref); start += 9 {
		read := append(dna.Sequence(nil), ref[start:start+24]...)
		read[start%24] ^= 1 // one substitution, so reads have several SMEMs
		reads = append(reads, read)
	}
	return engine.CASA(a), reads
}

type section struct {
	name    string
	payload []byte
}

// readSections returns a container's header and its sections in order.
func readSections(t testing.TB, data []byte) (idxio.Header, []section) {
	_, infos, err := idxio.ReadInfo(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	r, hdr, err := idxio.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var secs []section
	for _, in := range infos {
		sec, err := r.Section(in.Name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(sec)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, section{in.Name, body})
	}
	return hdr, secs
}

// writeSections writes a container through idxio.Writer, so every
// section's CRC matches whatever payload it carries.
func writeSections(t testing.TB, hdr idxio.Header, secs []section) []byte {
	var out bytes.Buffer
	w, err := idxio.NewWriter(&out, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if err := w.Section(s.name, func(sw io.Writer) error {
			_, err := sw.Write(s.payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzLoadCASAIndex replaces the casa/positions payload of a small valid
// container with fuzz bytes. LoadIndex must reject the payload or load
// an engine whose SMEMs equal the fresh build's: positions must be
// strictly (k-mer, position)-ordered, so the valid payload is the only
// one accepted.
func FuzzLoadCASAIndex(f *testing.F) {
	built, reads := fuzzCASA(f)
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf, built, engine.Options{}, nil); err != nil {
		f.Fatal(err)
	}
	hdr, secs := readSections(f, buf.Bytes())
	want := seedAll(built, reads)
	for i, w := range want {
		if len(w) == 0 {
			f.Fatalf("read %d has no SMEMs to compare", i)
		}
	}
	pos := slices.IndexFunc(secs, func(s section) bool { return s.name == "casa/positions" })
	if pos < 0 {
		f.Fatal("no casa/positions section")
	}
	if _, _, err := engine.LoadIndex(bytes.NewReader(writeSections(f, hdr, secs))); err != nil {
		f.Fatalf("rewritten valid container rejected: %v", err)
	}
	positions := secs[pos].payload
	f.Add(positions)
	f.Add(positions[:len(positions)-4])
	f.Add(append(append([]byte(nil), positions...), 0, 0, 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		forged := slices.Clone(secs)
		forged[pos].payload = payload
		data := writeSections(t, hdr, forged)
		loaded, _, err := engine.LoadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		got := seedAll(loaded, reads)
		for i := range reads {
			if !smem.Equal(want[i], got[i]) {
				t.Fatalf("accepted positions payload changes read %d:\nfresh  %v\nloaded %v", i, want[i], got[i])
			}
		}
	})
}
