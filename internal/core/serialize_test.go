package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/smem"
)

// saveContainer serializes a into a complete casa-idx container.
func saveContainer(t *testing.T, a *Accelerator) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := idxio.NewWriter(&buf, idxio.Header{Engine: "casa"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadContainer reads a container written by saveContainer (or forged
// through idxio.Writer), requiring the end marker after the sections.
func loadContainer(data []byte) (*Accelerator, error) {
	r, _, err := idxio.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	a, err := LoadIndex(r)
	if err != nil {
		return nil, err
	}
	return a, r.Close()
}

func roundTrip(t *testing.T, a *Accelerator) *Accelerator {
	t.Helper()
	loaded, err := loadContainer(saveContainer(t, a))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	cfg.PartitionBases = 900
	ref := randSeq(rng, 2600)
	orig, err := NewWithOverlap(ref, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, orig)

	if loaded.Partitions() != orig.Partitions() || orig.Partitions() < 3 {
		t.Fatalf("partitions = %d, want %d (>= 3)", loaded.Partitions(), orig.Partitions())
	}
	if loaded.Config() != orig.Config() || loaded.overlap != 50 {
		t.Fatalf("config mismatch:\n%+v overlap %d\n%+v", loaded.Config(), loaded.overlap, orig.Config())
	}
	if !slices.Equal(loaded.starts, orig.starts) {
		t.Fatalf("partition starts %v, want %v", loaded.starts, orig.starts)
	}
	for i := 0; i < orig.Partitions(); i++ {
		if !loaded.Partition(i).Ref().Equal(orig.Partition(i).Ref()) {
			t.Fatalf("partition %d reference mismatch", i)
		}
	}

	// Behavioural equivalence: identical SMEM results on a batch.
	var reads []dna.Sequence
	for i := 0; i < 15; i++ {
		reads = append(reads, plantedRead(rng, ref, 50, rng.Intn(4)))
	}
	a := orig.SeedReads(reads)
	b := loaded.SeedReads(reads)
	for i := range reads {
		if !smem.Equal(a.Reads[i].Forward, b.Reads[i].Forward) ||
			!smem.Equal(a.Reads[i].Reverse, b.Reads[i].Reverse) {
			t.Fatalf("read %d: loaded index disagrees\n%v\n%v", i, a.Reads[i], b.Reads[i])
		}
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycle model diverged: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestIndexRoundTripDefaultGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	cfg.PartitionBases = 1 << 17
	ref := randSeq(rng, 200000)
	orig, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, orig)
	read := plantedRead(rng, ref, 101, 2)
	a := orig.SeedReads([]dna.Sequence{read})
	b := loaded.SeedReads([]dna.Sequence{read})
	if !smem.Equal(a.Reads[0].Forward, b.Reads[0].Forward) {
		t.Fatalf("k=19 round trip mismatch: %v vs %v", a.Reads[0].Forward, b.Reads[0].Forward)
	}
}

// oracleFilter is one partition's filter as it was stored before the
// partitions shared a reference-wide filter: its own mini index, tags,
// search indicators and position ranges, from one sort of packed
// (k-mer, position) keys and a single pass over them.
type oracleFilter struct {
	cfg       Config
	bucket    []int // distinct k-mers per m-mer prefix
	kmers     []dna.Kmer
	data      []SearchIndicator
	posIndex  []int
	positions []int32
}

func buildFilterOracle(part dna.Sequence, cfg Config) *oracleFilter {
	posBits := bitsFor(len(part))
	var keys []uint64
	for x := 0; x+cfg.K <= len(part); x++ {
		keys = append(keys, uint64(dna.PackKmer(part, x, cfg.K))<<uint(posBits)|uint64(x))
	}
	slices.Sort(keys)
	f := &oracleFilter{cfg: cfg, bucket: make([]int, dna.NumKmers(cfg.M))}
	for i, key := range keys {
		kmer, x := dna.Kmer(key>>uint(posBits)), int(key&(1<<uint(posBits)-1))
		if i == 0 || kmer != f.kmers[len(f.kmers)-1] {
			f.kmers = append(f.kmers, kmer)
			f.data = append(f.data, SearchIndicator{})
			f.posIndex = append(f.posIndex, len(f.positions))
			f.bucket[f.prefix(kmer)]++
		}
		last := len(f.data) - 1
		f.data[last] = f.data[last].addOccurrence(x, cfg.Stride, cfg.Groups)
		f.positions = append(f.positions, int32(x))
	}
	f.posIndex = append(f.posIndex, len(f.positions))
	return f
}

func (f *oracleFilter) prefix(kmer dna.Kmer) uint64 { return uint64(kmer) >> uint(2*(f.cfg.K-f.cfg.M)) }

// sameFilter requires a partition's filter view to answer every present
// k-mer and a sample of absent ones exactly as the oracle's own table
// would, charges included, and the partition's stored positions to be the
// oracle's.
func sameFilter(t *testing.T, what string, rng *rand.Rand, got *Filter, stored []int32, want *oracleFilter) {
	t.Helper()
	if got.DistinctKmers() != len(want.kmers) {
		t.Fatalf("%s: %d distinct k-mers, want %d", what, got.DistinctKmers(), len(want.kmers))
	}
	if !slices.Equal(stored, want.positions) {
		t.Fatalf("%s: stored positions differ", what)
	}
	check := func(kmer dna.Kmer, i int, present bool) {
		before := got.Stats
		ind, ok := got.Lookup(kmer)
		d := got.Stats
		if ok != present || d.Lookups-before.Lookups != 1 || d.TagRowsEnabled-before.TagRowsEnabled != int64(want.bucket[want.prefix(kmer)]) {
			t.Fatalf("%s: k-mer %d: found %v (want %v), tag rows %d (want %d)", what, kmer, ok, present,
				d.TagRowsEnabled-before.TagRowsEnabled, want.bucket[want.prefix(kmer)])
		}
		if !present {
			if got.Positions(kmer) != nil {
				t.Fatalf("%s: absent k-mer %d has positions", what, kmer)
			}
			return
		}
		if ind != want.data[i] {
			t.Fatalf("%s: k-mer %d indicator %+v, want %+v", what, kmer, ind, want.data[i])
		}
		if !slices.Equal(got.Positions(kmer), want.positions[want.posIndex[i]:want.posIndex[i+1]]) {
			t.Fatalf("%s: k-mer %d positions differ", what, kmer)
		}
	}
	for i, kmer := range want.kmers {
		check(kmer, i, true)
	}
	for j := 0; j < 50; j++ {
		kmer := dna.Kmer(rng.Int63n(int64(dna.NumKmers(want.cfg.K))))
		if _, found := slices.BinarySearch(want.kmers, kmer); !found {
			check(kmer, 0, false)
		}
	}
}

// TestDerivedFilterMatchesBuild is the derivation oracle: over random
// geometries and references (repeat-rich ones included, so k-mers recur
// within and across partitions), both BuildFilter's filters and the ones
// LoadIndex derives from the stored positions equal the oracle's.
func TestDerivedFilterMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for c := 0; c < cases; c++ {
		cfg := testConfig()
		cfg.K = 2 + rng.Intn(12)
		cfg.M = 1 + rng.Intn(min(cfg.K-1, 6))
		cfg.MinSMEM = cfg.K
		cfg.Stride = 1 + rng.Intn(64)
		cfg.Groups = 1 + rng.Intn(64)
		cfg.PartitionBases = max(cfg.Stride, 50+rng.Intn(1500))
		overlap := rng.Intn(cfg.PartitionBases)
		ref := randSeq(rng, 1+rng.Intn(4000))
		if rng.Intn(2) == 0 {
			// Tile a short motif so most k-mers repeat.
			motif := randSeq(rng, 1+rng.Intn(30))
			for i := range ref {
				if rng.Intn(20) != 0 {
					ref[i] = motif[i%len(motif)]
				}
			}
		}
		built, err := NewWithOverlap(ref, cfg, overlap)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		loaded := roundTrip(t, built)
		if built.Partitions() != loaded.Partitions() {
			t.Fatalf("case %d: %d partitions loaded, %d built", c, loaded.Partitions(), built.Partitions())
		}
		builtPos, loadedPos := built.idx.partPositions(), loaded.idx.partPositions()
		for i, p := range built.parts {
			want := buildFilterOracle(p.ref, cfg)
			sameFilter(t, "build", rng, p.filter, builtPos[i], want)
			sameFilter(t, "load", rng, loaded.parts[i].filter, loadedPos[i], want)
		}
	}
}

// forge writes a container whose casa sections carry the given payloads
// verbatim: the CRCs are valid, so only structural checks can object.
func forge(t *testing.T, config, ref, positions []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := idxio.NewWriter(&buf, idxio.Header{Engine: "casa"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name    string
		payload []byte
	}{{configSection, config}, {refSection, ref}, {positionsSection, positions}} {
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
	return buf.Bytes()
}

// TestLoadIndexRejectsInconsistent forges CRC-valid sections that
// disagree with each other or with the filter invariants; each must fail
// with an error naming the offending section instead of loading.
func TestLoadIndexRejectsInconsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	cfg.PartitionBases = 300
	const overlap = 40
	ref := randSeq(rng, 700)
	copy(ref[100:120], ref[:20])
	a, err := NewWithOverlap(ref, cfg, overlap)
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := idxio.WriteBases(&refBuf, a.ref); err != nil {
		t.Fatal(err)
	}
	var positions []int32
	for _, pos := range a.idx.partPositions() {
		positions = append(positions, pos...)
	}
	n0 := len(a.idx.partPositions()[0]) // partition 0's k-mer count
	configJSON := func(c Config, overlap int) []byte {
		b, err := json.Marshal(savedConfig{c, overlap})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	encode := func(p []int32) []byte {
		var b bytes.Buffer
		if err := idxio.WriteInt32s(&b, p); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	edit := func(fn func(p []int32) []int32) []byte {
		return encode(fn(slices.Clone(positions)))
	}
	// The first pair of entries holding one k-mer (the reference repeats
	// its first 20 bases): swapping them keeps the k-mers sorted but
	// breaks position order.
	kmerAt := func(x int32) dna.Kmer { return dna.PackKmer(a.parts[0].ref, int(x), cfg.K) }
	dup := 0
	for i := 1; i < n0; i++ {
		if kmerAt(positions[i]) == kmerAt(positions[i-1]) {
			dup = i
			break
		}
	}
	if dup < 1 {
		t.Fatal("partition 0 has no repeated k-mer")
	}

	badCfg := cfg
	badCfg.M = cfg.K
	// A geometry Validate accepts whose 4^11-row mini index dwarfs the
	// few hundred positions the index stores.
	bigMini := cfg
	bigMini.K, bigMini.M, bigMini.MinSMEM = 19, 11, 19
	for _, tc := range []struct {
		name                  string
		config, ref, position []byte
		section, want         string
	}{
		{"valid", configJSON(cfg, overlap), refBuf.Bytes(), encode(positions), "", ""},
		{"position past the k-mer count",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { p[0] = int32(n0); return p }),
			positionsSection, "out of range"},
		{"negative position",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { p[3] = -1; return p }),
			positionsSection, "out of range"},
		{"duplicated position",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { p[dup] = p[dup-1]; return p }),
			positionsSection, "order"},
		{"positions out of k-mer order",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { p[0], p[n0-1] = p[n0-1], p[0]; return p }),
			positionsSection, "order"},
		{"positions out of position order within a k-mer",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { p[dup], p[dup-1] = p[dup-1], p[dup]; return p }),
			positionsSection, "order"},
		{"positions payload short",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { return p[:len(p)-1] }),
			positionsSection, "EOF"},
		{"positions payload long",
			configJSON(cfg, overlap), refBuf.Bytes(),
			edit(func(p []int32) []int32 { return append(p, 0) }),
			positionsSection, "longer"},
		{"config fails Validate",
			configJSON(badCfg, overlap), refBuf.Bytes(), encode(positions),
			configSection, "m="},
		{"mini index beyond the stored positions",
			configJSON(bigMini, overlap), refBuf.Bytes(), encode(positions),
			configSection, "mini index"},
		{"negative overlap",
			configJSON(cfg, -1), refBuf.Bytes(), encode(positions),
			configSection, "overlap"},
		{"overlap of a whole partition",
			configJSON(cfg, cfg.PartitionBases), refBuf.Bytes(), encode(positions),
			configSection, "overlap"},
		{"unknown config field",
			[]byte(`{"K":7,"Warp":1}`), refBuf.Bytes(), encode(positions),
			configSection, "Warp"},
		{"data after the config",
			append(configJSON(cfg, overlap), "{}"...), refBuf.Bytes(), encode(positions),
			configSection, "after"},
		{"empty reference",
			configJSON(cfg, overlap), make([]byte, 8), nil,
			refSection, "empty"},
		{"reference payload long",
			configJSON(cfg, overlap), append(slices.Clone(refBuf.Bytes()), 0), encode(positions),
			refSection, "longer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadContainer(forge(t, tc.config, tc.ref, tc.position))
			if tc.section == "" {
				if err != nil {
					t.Fatalf("valid forge rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("inconsistent index accepted")
			}
			if !strings.Contains(err.Error(), `"`+tc.section+`"`) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q should name section %q and mention %q", err, tc.section, tc.want)
			}
		})
	}
}
