package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/metrics"
	"casa/internal/smem"
)

func TestNewPartitioning(t *testing.T) {
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := make(dna.Sequence, 3500)
	a, err := NewWithOverlap(ref, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	// step 900: starts 0, 900, 1800, 2700 -> ends 1000,1900,2800,3500.
	if a.Partitions() != 4 {
		t.Fatalf("partitions = %d, want 4", a.Partitions())
	}
	if got := len(a.Partition(3).Ref()); got != 800 {
		t.Errorf("last partition length = %d, want 800", got)
	}
}

func TestNewErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := New(nil, cfg); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewWithOverlap(make(dna.Sequence, 100), cfg, cfg.PartitionBases); err == nil {
		t.Error("overlap >= partition accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := New(make(dna.Sequence, 100), bad); err == nil {
		t.Error("invalid config accepted")
	}
	// The mini index may not outgrow max(4^10, stored positions), at
	// build as at load.
	bigMini := cfg
	bigMini.K, bigMini.M, bigMini.MinSMEM = 19, 11, 19
	if _, err := New(make(dna.Sequence, 1000), bigMini); err == nil || !strings.Contains(err.Error(), "mini index") {
		t.Errorf("4^11-row mini index for 982 positions: err = %v", err)
	}
}

func TestSeedReadsMatchesWholeGenomeGolden(t *testing.T) {
	// Partitioned seeding with overlap >= read length, merged across
	// partitions, must reproduce the whole-reference SMEM set exactly
	// (intervals; hit counts can double-count occurrences inside the
	// overlap region). This is the paper's §6 validation claim. The
	// exact-match prepass is disabled: its read retirement intentionally
	// skips the non-matching strand of resolved reads (tested separately
	// in TestSeedReadsExactRetirement).
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	cfg.ExactMatchPrepass = false
	cfg.PartitionBases = 700
	ref := randSeq(rng, 3000)
	const readLen = 50
	a, err := NewWithOverlap(ref, cfg, readLen)
	if err != nil {
		t.Fatal(err)
	}
	golden := smem.BruteForce{Ref: ref}
	var reads []dna.Sequence
	for i := 0; i < 25; i++ {
		reads = append(reads, plantedRead(rng, ref, readLen, rng.Intn(4)))
	}
	res := a.SeedReads(reads)
	for i, read := range reads {
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		got := res.Reads[i].Forward
		if !smem.SameIntervals(want, got) {
			t.Fatalf("read %d forward:\n got %v\nwant %v", i, got, want)
		}
		wantR := golden.FindSMEMs(read.ReverseComplement(), cfg.MinSMEM)
		if !smem.SameIntervals(wantR, res.Reads[i].Reverse) {
			t.Fatalf("read %d reverse:\n got %v\nwant %v", i, res.Reads[i].Reverse, wantR)
		}
	}
}

func TestSeedReadsExactRetirement(t *testing.T) {
	// With the prepass on, an exactly matching read retires at its first
	// matching partition: the matching strand reports the full-read SMEM
	// with that partition's hits; the other strand reports nothing.
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig()
	cfg.PartitionBases = 700
	ref := randSeq(rng, 2500)
	a, err := NewWithOverlap(ref, cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	exact := ref[300:360].Clone()        // forward exact
	revRead := exact.ReverseComplement() // reverse-strand exact
	inexact := plantedRead(rng, ref, 60, 3)
	res := a.SeedReads([]dna.Sequence{exact, revRead, inexact})

	if got := res.Reads[0].Forward; len(got) != 1 || got[0].Start != 0 || got[0].End != 59 {
		t.Errorf("exact forward read: %v", got)
	}
	if got := res.Reads[0].Reverse; got != nil {
		t.Errorf("retired read's reverse strand reported %v", got)
	}
	if got := res.Reads[1].Reverse; len(got) != 1 || got[0].End != 59 {
		t.Errorf("reverse-exact read: %v", got)
	}
	// The inexact read still gets full SMEMs on both strands.
	golden := smem.BruteForce{Ref: ref}
	if want := golden.FindSMEMs(inexact, cfg.MinSMEM); !smem.SameIntervals(want, res.Reads[2].Forward) {
		t.Errorf("inexact forward: got %v want %v", res.Reads[2].Forward, want)
	}
	if res.Stats.ReadsExact < 2 {
		t.Errorf("ReadsExact = %d, want >= 2", res.Stats.ReadsExact)
	}
}

func TestResultTimingAndThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	ref := randSeq(rng, 5000)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for i := 0; i < 40; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, rng.Intn(3)))
	}
	res := a.SeedReads(reads)
	if res.Seconds <= 0 || res.Cycles <= 0 {
		t.Fatalf("no time modelled: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
	if got := res.Throughput() * res.Seconds; int(got+0.5) != len(reads) {
		t.Errorf("throughput x time = %.1f reads, want %d", got, len(reads))
	}
	if res.DRAM.TotalBytes() <= 0 {
		t.Error("no DRAM traffic recorded")
	}
	if res.ReadsPerMJ() <= 0 {
		t.Error("energy efficiency must be positive")
	}
}

func TestResultEnergyBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	ref := randSeq(rng, 5000)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for i := 0; i < 20; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, 1))
	}
	res := a.SeedReads(reads)
	r := res.Energy
	if r.PowerW() <= 0 {
		t.Fatal("no power modelled")
	}
	// Components the breakdown must include.
	for _, name := range []string{
		"pre-seeding filter: mini index",
		"pre-seeding filter: tag array",
		"pre-seeding filter: data array",
		"computing CAMs",
		"pre-seeding controller",
		"computing controllers",
		"DDR4",
		"DRAM controller PHY",
	} {
		found := false
		for _, c := range r.Components {
			if c.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("component %q missing from the breakdown", name)
		}
	}
	if r.AreaMM2() <= 0 {
		t.Error("no area modelled")
	}
}

func TestPaperGeometryAreaMatchesTable4(t *testing.T) {
	// With the paper's full dimensions, the area synthesized from Table 3
	// macros must land near Table 4: filter ~188 mm^2, computing CAMs
	// ~90 mm^2, total ~297 mm^2.
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	ref := randSeq(rng, 1<<16) // small text; area depends on capacity, not content
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := a.SeedReads([]dna.Sequence{plantedRead(rng, ref, 101, 1)})
	var filter, cams float64
	for _, c := range res.Energy.Components {
		switch c.Name {
		case "pre-seeding filter: mini index", "pre-seeding filter: tag array", "pre-seeding filter: data array":
			filter += c.AreaMM2
		case "computing CAMs":
			cams += c.AreaMM2
		}
	}
	if filter < 150 || filter > 230 {
		t.Errorf("filter area = %.1f mm^2, Table 4 says 188.4", filter)
	}
	if cams < 70 || cams > 110 {
		t.Errorf("computing CAM area = %.1f mm^2, Table 4 says 90.3", cams)
	}
	total := res.Energy.AreaMM2()
	if total < 240 || total > 360 {
		t.Errorf("total area = %.1f mm^2, Table 4 says 296.6", total)
	}
}

func TestStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := randSeq(rng, 2500)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := []dna.Sequence{plantedRead(rng, ref, 50, 1)}
	res := a.SeedReads(reads)
	// Each read is seeded on both strands against every partition.
	want := int64(2 * a.Partitions())
	if res.Stats.ReadsSeeded != want {
		t.Errorf("ReadsSeeded = %d, want %d", res.Stats.ReadsSeeded, want)
	}
	// Aggregate must equal the sum over partitions.
	var sum PartStats
	for i := 0; i < a.Partitions(); i++ {
		sum.add(a.Partition(i).Stats)
	}
	if res.Stats != sum {
		t.Errorf("aggregate stats mismatch:\n res %+v\n sum %+v", res.Stats, sum)
	}
}

func TestAblationThroughputOrdering(t *testing.T) {
	// Filtering and the exact-match prepass must not slow CASA down.
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig()
	cfg.PartitionBases = 2000
	ref := randSeq(rng, 8000)
	var reads []dna.Sequence
	for i := 0; i < 30; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, rng.Intn(2)))
	}
	run := func(mutate func(*Config)) float64 {
		c := cfg
		mutate(&c)
		a, err := New(ref, c)
		if err != nil {
			t.Fatal(err)
		}
		return a.SeedReads(reads).Throughput()
	}
	full := run(func(c *Config) {})
	naive := run(func(c *Config) {
		c.UseFilterTable = false
		c.UseAnalysis = false
		c.ExactMatchPrepass = false
	})
	if full < naive {
		t.Errorf("full CASA (%.0f reads/s) slower than naive (%.0f reads/s)", full, naive)
	}
}

// TestHitPositionsCapIsPrefix: a capped HitPositions (deduplicated by
// scanning its short result) returns exactly the first max positions of
// the uncapped one (deduplicated by a set), and every position is a
// distinct true occurrence. Repeats crossing partition overlaps supply
// the duplicates.
func TestHitPositionsCapIsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := testConfig()
	cfg.PartitionBases = 600
	ref := randSeq(rng, 4000)
	motif := ref[100:160].Clone()
	for _, at := range []int{530, 1045, 1570, 2090, 2400, 3300} {
		copy(ref[at:], motif)
	}
	a, err := NewWithOverlap(ref, cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		read := motif
		if trial%3 == 0 {
			at := rng.Intn(len(ref) - 60)
			read = ref[at : at+60]
		}
		start := rng.Intn(30)
		m := smem.Match{Start: start, End: start + cfg.K + rng.Intn(20)}
		all := a.HitPositions(read, m, 0)
		for i, p := range all {
			if !slices.Equal(ref[p:int(p)+m.Len()], read[m.Start:m.End+1]) || slices.Contains(all[:i], p) {
				t.Fatalf("position %d of %v is not a distinct occurrence", p, all)
			}
		}
		for max := 1; max <= len(all)+1; max++ {
			if got := a.HitPositions(read, m, max); !slices.Equal(got, all[:min(max, len(all))]) {
				t.Fatalf("cap %d: %v, want a prefix of %v", max, got, all)
			}
		}
	}
}

// TestFilterActivityCharged pins the pre-seeding filter's accounting:
// every lookup a partition pass performs must reach the Activity's
// per-partition stats (and through them the casa/filter/* counters, the
// filter term of stageCycles and the Table 4 filter energy). With the
// exact-match prepass off, stage 2 looks up every pivot of every live
// strand in every partition.
func TestFilterActivityCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := randSeq(rng, 3200)
	var reads []dna.Sequence
	for i := 0; i < 20; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, i%3))
	}
	reads = append(reads, ref[500:560].Clone()) // an exact read

	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	a.Seed(reads).PublishMetrics(reg)
	for _, name := range []string{"lookups", "hits", "mini_accesses", "tag_searches", "tag_rows_enabled", "data_accesses"} {
		if v := reg.Counter("casa/filter/" + name).Value(); v <= 0 {
			t.Errorf("casa/filter/%s = %d, want > 0", name, v)
		}
	}

	cfg.ExactMatchPrepass = false
	if a, err = New(ref, cfg); err != nil {
		t.Fatal(err)
	}
	act := a.Seed(reads)
	var want int64
	for _, r := range reads {
		want += 2 * int64(len(r)-cfg.K+1) // both strands stay live
	}
	for pi, st := range act.Stage2 {
		if st.Filter.Lookups != want {
			t.Errorf("partition %d: stage-2 lookups = %d, want %d", pi, st.Filter.Lookups, want)
		}
		if st.Filter.MiniAccesses != want || st.Filter.TagSearches != want {
			t.Errorf("partition %d: mini/tag accesses %d/%d, want %d", pi, st.Filter.MiniAccesses, st.Filter.TagSearches, want)
		}
	}
	for _, c := range a.Reduce(act).Energy.Components {
		if strings.HasPrefix(c.Name, "pre-seeding filter") && c.DynamicPJ <= 0 {
			t.Errorf("%s: no dynamic energy charged", c.Name)
		}
	}
}
