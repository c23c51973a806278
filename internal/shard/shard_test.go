package shard_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/readsim"
	"casa/internal/shard"
	"casa/internal/smem"
	"casa/internal/trace"
)

func testWorkload(t *testing.T, refLen, reads int) (dna.Sequence, []dna.Sequence) {
	t.Helper()
	ref := readsim.GenerateReference(readsim.DefaultGenome(refLen, 11))
	rs := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(reads, 13)))
	return ref, rs
}

func seedAll(t *testing.T, e engine.Engine, reads []dna.Sequence) [][]smem.Match {
	t.Helper()
	c := e.Clone()
	act := c.SeedTrace(reads, nil, 0)
	return c.SMEMs(c.Reduce(reads, []engine.Activity{act}))
}

// TestShardedMatchesFlat pins the acceptance criterion: for every
// registered composite, the per-read SMEM sets are bit-identical to its
// flat inner engine's at shard counts 1, 2 and 5 (Exact mode, where the
// inner engines' outputs are defined to be the exact SMEM sets).
func TestShardedMatchesFlat(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 24)
	var composites int
	for _, f := range engine.List() {
		inner, ok := strings.CutPrefix(f.Name, "sharded:")
		if !ok {
			continue
		}
		composites++
		opt := engine.Options{MinSMEM: 19, TableK: 8, Exact: true}
		flat, err := engine.New(inner, ref, opt)
		if err != nil {
			t.Fatalf("%s: %v", inner, err)
		}
		want := seedAll(t, flat, reads)
		for _, shards := range []int{1, 2, 5} {
			sopt := opt
			sopt.Shards = shards
			sharded, err := engine.New(f.Name, ref, sopt)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", f.Name, shards, err)
			}
			got := seedAll(t, sharded, reads)
			for i := range reads {
				if !smem.Equal(want[i], got[i]) {
					t.Fatalf("%s shards=%d read %d:\nflat    %v\nsharded %v",
						f.Name, shards, i, want[i], got[i])
				}
			}
		}
	}
	if composites != 3 {
		t.Fatalf("%d sharded composites registered, want 3 (casa, cpu, fmindex)", composites)
	}
}

// TestShardedWorkerCounts drives the sharded engines through the batch
// pool at worker counts 1, 4 and 16 and requires bit-identical results
// each time (the pool's determinism contract must survive composition).
func TestShardedWorkerCounts(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 32)
	for _, name := range []string{"sharded:casa", "sharded:cpu", "sharded:fmindex"} {
		e, err := engine.New(name, ref, engine.Options{MinSMEM: 19, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]smem.Match
		for _, workers := range []int{1, 4, 16} {
			res := batch.SeedEngine(e, reads, batch.Options{Workers: workers, Grain: 4})
			got := e.SMEMs(res)
			if want == nil {
				want = got
				continue
			}
			for i := range reads {
				if !smem.Equal(want[i], got[i]) {
					t.Fatalf("%s workers=%d read %d: results differ", name, workers, i)
				}
			}
		}
	}
}

// TestShardedSeedReadIntoMatchesReduce requires the per-read hot path
// and the batch Reduce path to merge identically.
func TestShardedSeedReadIntoMatchesReduce(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 16)
	for _, name := range []string{"sharded:casa", "sharded:cpu", "sharded:fmindex"} {
		e, err := engine.New(name, ref, engine.Options{MinSMEM: 19, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		rs, ok := e.Clone().(engine.ReadSeeder)
		if !ok {
			t.Fatalf("%s: no ReadSeeder", name)
		}
		want := seedAll(t, e, reads)
		var seeds engine.Seeds
		for i, read := range reads {
			if !rs.SeedReadInto(&seeds, read) {
				t.Fatalf("%s: SeedReadInto refused", name)
			}
			if !smem.Equal(want[i], seeds.Forward) {
				t.Fatalf("%s read %d:\nreduce %v\nhot    %v", name, i, want[i], seeds.Forward)
			}
		}
	}
}

// TestShardedIndexRoundTrip pins persistence through the composite:
// save a sharded index, load it, and require identical SMEMs — without
// the reference in reach of the loaded instance.
func TestShardedIndexRoundTrip(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 12)
	for _, name := range []string{"sharded:casa", "sharded:cpu", "sharded:fmindex"} {
		opt := engine.Options{MinSMEM: 19, Shards: 3}
		built, err := engine.New(name, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
			t.Fatalf("%s: SaveIndex: %v", name, err)
		}
		loaded, hdr, err := engine.LoadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: LoadIndex: %v", name, err)
		}
		if hdr.Engine != name || hdr.Shards != 3 {
			t.Fatalf("%s: header %+v", name, hdr)
		}
		if loaded.(*shard.Sharded).Shards() != built.(*shard.Sharded).Shards() {
			t.Fatalf("%s: shard count changed across the round trip", name)
		}
		want := seedAll(t, built, reads)
		got := seedAll(t, loaded, reads)
		for i := range reads {
			if !smem.Equal(want[i], got[i]) {
				t.Fatalf("%s read %d: loaded index disagrees", name, i)
			}
		}
	}
}

// TestGeometryInvariants checks the shard layout directly: full
// coverage, pairwise-only overlap, and windows bounded by the overlap.
func TestGeometryInvariants(t *testing.T) {
	for _, tc := range []struct{ n, shards, overlap int }{
		{0, 2, 512}, {1, 2, 512}, {100, 5, 512}, {1 << 14, 5, 512},
		{1 << 14, 1, 512}, {1 << 16, 7, 100}, {1000, 100, 16}, {513, 2, 512},
	} {
		ref := make(dna.Sequence, tc.n)
		e, err := engine.New("sharded:fmindex", ref, engine.Options{
			MinSMEM: 19, Shards: tc.shards, ShardOverlap: tc.overlap,
		})
		if tc.n == 0 {
			// Engines reject empty references flat and sharded alike;
			// either outcome just must not panic.
			continue
		}
		if err != nil {
			t.Fatalf("n=%d shards=%d overlap=%d: %v", tc.n, tc.shards, tc.overlap, err)
		}
		s := e.(*shard.Sharded)
		if got := s.Shards(); got < 1 || got > max(tc.shards, 1) {
			t.Errorf("n=%d shards=%d: built %d shards", tc.n, tc.shards, got)
		}
	}
}

// TestShardedTraceSpans checks the composite's own spans validate and
// carry the shard geometry in their names.
func TestShardedTraceSpans(t *testing.T) {
	ref, reads := testWorkload(t, 1<<13, 4)
	e, err := engine.New("sharded:fmindex", ref, engine.Options{MinSMEM: 19, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.PolicyAll, 0)
	res := batch.SeedEngine(e, reads, batch.Options{Workers: 2, Grain: 2, Trace: tr})
	if got := e.SMEMs(res); len(got) != len(reads) {
		t.Fatalf("%d results", len(got))
	}
	spans := tr.Spans()
	if err := trace.Validate(spans); err != nil {
		t.Fatalf("spans do not validate: %v", err)
	}
	var shardSpans int
	for _, sp := range spans {
		if sp.Track == "shard" {
			shardSpans++
			if !strings.Contains(sp.Name, "shard ") || !strings.Contains(sp.Name, "[") {
				t.Fatalf("span name %q does not carry the geometry", sp.Name)
			}
		}
	}
	if want := len(reads) * e.(*shard.Sharded).Shards(); shardSpans != want {
		t.Fatalf("%d shard spans, want %d", shardSpans, want)
	}
}

// A CRC-valid geometry section whose window claims 2^32 bases but holds
// a few must fail naming the section, without allocating for the claim.
func TestGeometryRejectsLyingWindowLength(t *testing.T) {
	ref, _ := testWorkload(t, 1<<12, 1)
	opt := engine.Options{MinSMEM: 19, Shards: 2}
	built, err := engine.New("sharded:fmindex", ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
		t.Fatal(err)
	}
	// Copy the container section by section, patching the window length:
	// u64 overlap, u64 shards, 2 x (u64 start, u64 len), u64 winStart.
	r, hdr, err := idxio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, infos, err := idxio.ReadInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	w, err := idxio.NewWriter(&forged, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		sec, err := r.Section(in.Name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(sec)
		if err != nil {
			t.Fatal(err)
		}
		if in.Name == "shard/geometry" {
			binary.LittleEndian.PutUint64(body[56:], 1<<32)
		}
		if err := w.Section(in.Name, func(sw io.Writer) error {
			_, err := sw.Write(body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = engine.LoadIndex(bytes.NewReader(forged.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "shard/geometry") {
		t.Fatalf("err = %v, want one naming shard/geometry", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("loading a lying window length allocated %d bytes", grew)
	}
}
