package core

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
)

// testConfig returns a small-geometry config suitable for unit tests:
// k=7, m=4, stride 5, 4 groups.
func testConfig() Config {
	c := DefaultConfig()
	c.K = 7
	c.M = 4
	c.MinSMEM = 7
	c.Stride = 5
	c.Groups = 4
	c.PartitionBases = 1 << 16
	return c
}

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestBuildFilterRejectsBadConfig(t *testing.T) {
	c := testConfig()
	c.K = 0
	if _, err := BuildFilter(dna.FromString("ACGT"), c); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestBuildFilterRejectsOversizedPartition(t *testing.T) {
	c := testConfig()
	c.PartitionBases = 8
	c.Stride = 5
	if _, err := BuildFilter(make(dna.Sequence, 100), c); err == nil {
		t.Error("oversized partition accepted")
	}
}

func TestFilterNoFalseNegativesOrPositives(t *testing.T) {
	// §4.1: "the proposed pre-seeding filter table avoids k-mer false
	// positives or misses, unlike the bloom filter in GenCache."
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	part := randSeq(rng, 3000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[dna.Kmer]bool)
	for i := 0; i+cfg.K <= len(part); i++ {
		present[dna.PackKmer(part, i, cfg.K)] = true
	}
	// Every present k-mer must be found.
	for km := range present {
		if _, ok := f.Lookup(km); !ok {
			t.Fatalf("false negative for %s", dna.KmerString(km, cfg.K))
		}
	}
	// Random absent k-mers must not be found.
	for trial := 0; trial < 2000; trial++ {
		km := dna.Kmer(rng.Intn(dna.NumKmers(cfg.K)))
		if _, ok := f.Lookup(km); ok != present[km] {
			t.Fatalf("lookup(%s) = %v, want %v", dna.KmerString(km, cfg.K), ok, present[km])
		}
	}
	if f.DistinctKmers() != len(present) {
		t.Errorf("DistinctKmers = %d, want %d", f.DistinctKmers(), len(present))
	}
}

func TestFilterIndicatorsMatchOccurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	part := randSeq(rng, 2000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+cfg.K <= len(part); i += 17 {
		km := dna.PackKmer(part, i, cfg.K)
		ind, ok := f.Lookup(km)
		if !ok {
			t.Fatalf("present k-mer missing")
		}
		// Recompute the expected indicator from all occurrences.
		var want SearchIndicator
		for _, pos := range f.Positions(km) {
			want = want.addOccurrence(int(pos), cfg.Stride, cfg.Groups)
		}
		if ind != want {
			t.Fatalf("indicator mismatch at %d: %+v vs %+v", i, ind, want)
		}
		// This occurrence's own offsets must be present.
		if ind.StartMask&(1<<uint(i%cfg.Stride)) == 0 {
			t.Fatalf("own start offset missing at %d", i)
		}
		if ind.GroupMask&(1<<uint((i/cfg.Stride)%cfg.Groups)) == 0 {
			t.Fatalf("own group missing at %d", i)
		}
	}
}

func TestFilterPositionsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	// Repetitive text: many multi-occurrence k-mers.
	unit := randSeq(rng, 13)
	var part dna.Sequence
	for i := 0; i < 60; i++ {
		part = append(part, unit...)
		part = append(part, randSeq(rng, 3)...)
	}
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[dna.Kmer]int)
	for i := 0; i+cfg.K <= len(part); i++ {
		counts[dna.PackKmer(part, i, cfg.K)]++
	}
	for km, want := range counts {
		pos := f.Positions(km)
		if len(pos) != want {
			t.Fatalf("positions(%s) = %d, want %d", dna.KmerString(km, cfg.K), len(pos), want)
		}
		for j := 1; j < len(pos); j++ {
			if pos[j] <= pos[j-1] {
				t.Fatal("positions not sorted")
			}
		}
		for _, p := range pos {
			if !part[p : int(p)+cfg.K].Equal(dna.FromString(dna.KmerString(km, cfg.K))) {
				t.Fatalf("position %d does not hold the k-mer", p)
			}
		}
	}
}

func TestFilterStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	part := randSeq(rng, 1000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Lookup(dna.PackKmer(part, 0, cfg.K)) // hit
	missing := dna.Kmer(0)
	for f.Positions(missing) != nil {
		missing++
	}
	f.Lookup(missing) // miss
	s := f.Stats
	if s.Lookups != 2 || s.MiniAccesses != 2 || s.TagSearches != 2 {
		t.Errorf("lookup counts wrong: %+v", s)
	}
	if s.Hits != 1 || s.DataAccesses != 1 {
		t.Errorf("hit accounting wrong: %+v", s)
	}
	// Gated tag search: enabled rows must be bounded by the largest
	// m-mer bucket, far below the total number of tags.
	if s.TagRowsEnabled > int64(f.DistinctKmers()) {
		t.Errorf("range decoder gating ineffective: %d rows for %d tags",
			s.TagRowsEnabled, f.DistinctKmers())
	}
	// Positions must not charge stats.
	before := f.Stats
	f.Positions(dna.PackKmer(part, 0, cfg.K))
	if f.Stats != before {
		t.Error("Positions charged filter stats")
	}
}

func TestFilterContains(t *testing.T) {
	cfg := testConfig()
	part := dna.FromString("ACGTACGTACGTACG")
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains(dna.PackKmer(part, 0, cfg.K)) {
		t.Error("present k-mer not contained")
	}
	if f.Contains(dna.PackKmer(dna.FromString("TTTTTTT"), 0, cfg.K)) {
		t.Error("absent k-mer contained")
	}
}

func TestFilterTinyPartition(t *testing.T) {
	cfg := testConfig()
	// Exactly one k-mer.
	part := dna.FromString("ACGTACG")
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.DistinctKmers() != 1 {
		t.Errorf("DistinctKmers = %d", f.DistinctKmers())
	}
	// Shorter than k: empty filter.
	f2, err := BuildFilter(dna.FromString("ACG"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.DistinctKmers() != 0 {
		t.Errorf("short partition has %d k-mers", f2.DistinctKmers())
	}
}

func TestFilterDefaultGeometryWorks(t *testing.T) {
	// Full k=19/m=10 geometry on a small but realistic partition.
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.PartitionBases = 1 << 20
	part := randSeq(rng, 200000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+cfg.K <= len(part); i += 997 {
		if _, ok := f.Lookup(dna.PackKmer(part, i, cfg.K)); !ok {
			t.Fatalf("false negative at %d with default geometry", i)
		}
	}
}
