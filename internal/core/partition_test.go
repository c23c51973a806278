package core

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
	"casa/internal/smem"
)

// plantedRead copies a window of ref and injects mutations.
func plantedRead(rng *rand.Rand, ref dna.Sequence, length, mutations int) dna.Sequence {
	start := rng.Intn(len(ref) - length)
	read := ref[start : start+length].Clone()
	for m := 0; m < mutations; m++ {
		read[rng.Intn(length)] = dna.Base(rng.Intn(4))
	}
	return read
}

// seedVariants runs SeedRead under every ablation combination that must
// preserve results.
func seedVariants(t *testing.T, ref, read dna.Sequence, cfg Config) [][]smem.Match {
	t.Helper()
	variants := []func(*Config){
		func(c *Config) {}, // full CASA
		func(c *Config) { c.UseAnalysis = false },
		func(c *Config) { c.UseAnalysis = false; c.UseFilterTable = false },
		func(c *Config) { c.ExactMatchPrepass = false },
		func(c *Config) { c.GroupGating = false; c.EntryGating = false },
	}
	var out [][]smem.Match
	for i, f := range variants {
		c := cfg
		f(&c)
		p, err := NewPartition(ref, c)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		out = append(out, p.SeedRead(read))
	}
	return out
}

func TestSeedReadMatchesGolden(t *testing.T) {
	// The central correctness claim: CASA's filter-enabled algorithm
	// produces exactly the golden SMEM set (length >= k) — "CASA produces
	// identical SMEMs to GenAx and ... the same alignment as BWA-MEM2".
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	for trial := 0; trial < 20; trial++ {
		ref := randSeq(rng, 400+rng.Intn(800))
		golden := smem.BruteForce{Ref: ref}
		for r := 0; r < 8; r++ {
			var read dna.Sequence
			switch r % 3 {
			case 0:
				read = plantedRead(rng, ref, 40+rng.Intn(60), rng.Intn(5))
			case 1:
				read = randSeq(rng, 30+rng.Intn(40))
			default:
				read = plantedRead(rng, ref, 50, 0) // exact-match read
			}
			want := golden.FindSMEMs(read, cfg.MinSMEM)
			for vi, got := range seedVariants(t, ref, read, cfg) {
				if !smem.Equal(want, got) {
					t.Fatalf("trial %d read %d variant %d:\n got %v\nwant %v\nread %s\nref %s",
						trial, r, vi, got, want, read, ref)
				}
			}
		}
	}
}

func TestSeedReadRepetitiveReference(t *testing.T) {
	// Tandem repeats: multi-hit k-mers, contained RMEMs, alignment checks
	// with many offsets.
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	unit := randSeq(rng, 11)
	var ref dna.Sequence
	for i := 0; i < 40; i++ {
		ref = append(ref, unit...)
		if i%4 == 0 {
			ref = append(ref, randSeq(rng, 7)...)
		}
	}
	golden := smem.BruteForce{Ref: ref}
	for r := 0; r < 20; r++ {
		read := plantedRead(rng, ref, 45, rng.Intn(4))
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		for vi, got := range seedVariants(t, ref, read, cfg) {
			if !smem.Equal(want, got) {
				t.Fatalf("read %d variant %d:\n got %v\nwant %v", r, vi, got, want)
			}
		}
	}
}

func TestSeedReadPaperGeometry(t *testing.T) {
	// k=19, m=10, stride 40, 101 bp reads: the paper's exact dimensions.
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig()
	cfg.PartitionBases = 1 << 18
	ref := randSeq(rng, 50000)
	p, err := NewPartition(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden := smem.BruteForce{Ref: ref}
	for r := 0; r < 10; r++ {
		read := plantedRead(rng, ref, 101, rng.Intn(6))
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		got := p.SeedRead(read)
		if !smem.Equal(want, got) {
			t.Fatalf("read %d:\n got %v\nwant %v", r, got, want)
		}
	}
}

func TestSeedReadEmptyAndShortReads(t *testing.T) {
	cfg := testConfig()
	p, err := NewPartition(dna.FromString("ACGTACGTACGTACGT"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SeedRead(nil); got != nil {
		t.Errorf("empty read produced %v", got)
	}
	if got := p.SeedRead(dna.FromString("ACG")); got != nil {
		t.Errorf("sub-k read produced %v", got)
	}
}

func TestSeedReadNoHitReadDiscarded(t *testing.T) {
	cfg := testConfig()
	p, err := NewPartition(dna.FromString("AAAAAAAAAAAAAAAAAAAAAAAA"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := p.SeedRead(dna.FromString("CCCCCCCCCCCC"))
	if got != nil {
		t.Errorf("no-hit read produced %v", got)
	}
	if p.Stats.ReadsDiscarded != 1 {
		t.Errorf("ReadsDiscarded = %d, want 1", p.Stats.ReadsDiscarded)
	}
	if p.Stats.ComputeCycles != 0 {
		t.Errorf("discarded read consumed %d compute cycles", p.Stats.ComputeCycles)
	}
}

func TestExactMatchPrepassDetects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	ref := randSeq(rng, 3000)
	p, err := NewPartition(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[100:180].Clone()
	got := p.SeedRead(read)
	if p.Stats.ReadsExact != 1 {
		t.Errorf("exact read not taken by the prepass: %+v", p.Stats)
	}
	if len(got) != 1 || got[0].Start != 0 || got[0].End != len(read)-1 {
		t.Errorf("exact read SMEMs = %v", got)
	}
	// The prepass must skip the pivot loop entirely.
	if p.Stats.PivotsComputed != 0 {
		t.Errorf("exact read still computed %d pivots", p.Stats.PivotsComputed)
	}
}

func TestExactMatchPrepassHitsCount(t *testing.T) {
	cfg := testConfig()
	// Reference with the read planted twice.
	rng := rand.New(rand.NewSource(5))
	read := randSeq(rng, 30)
	var ref dna.Sequence
	ref = append(ref, randSeq(rng, 50)...)
	ref = append(ref, read...)
	ref = append(ref, randSeq(rng, 50)...)
	ref = append(ref, read...)
	ref = append(ref, randSeq(rng, 50)...)
	p, err := NewPartition(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := p.SeedRead(read)
	if len(got) != 1 || got[0].Hits != 2 {
		t.Errorf("planted-twice read: %v, want 1 SMEM with 2 hits", got)
	}
}

func TestInexactReadSkipsPrepass(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig()
	ref := randSeq(rng, 3000)
	p, err := NewPartition(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	read := plantedRead(rng, ref, 60, 3)
	// Ensure it is actually inexact.
	if (smem.BruteForce{Ref: ref}).FindSMEMs(read, len(read)) != nil {
		t.Skip("mutations landed on duplicate bases; read still exact")
	}
	p.SeedRead(read)
	if p.Stats.ReadsExact != 0 {
		t.Error("inexact read classified exact")
	}
}

func TestFilterReducesPivots(t *testing.T) {
	// Fig 15's shape: table filtering removes most pivots; analysis
	// removes more. Use a read mostly foreign to the partition.
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig()
	cfg.ExactMatchPrepass = false
	ref := randSeq(rng, 4000)
	reads := make([]dna.Sequence, 50)
	for i := range reads {
		if i%10 == 0 {
			reads[i] = plantedRead(rng, ref, 60, 2)
		} else {
			reads[i] = randSeq(rng, 60) // foreign: nearly no 7-mer... actually
		}
	}
	run := func(mutate func(*Config)) int64 {
		c := cfg
		mutate(&c)
		p, err := NewPartition(ref, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			p.SeedRead(r)
		}
		return p.Stats.PivotsComputed
	}
	naive := run(func(c *Config) { c.UseFilterTable = false; c.UseAnalysis = false })
	table := run(func(c *Config) { c.UseAnalysis = false })
	analysis := run(func(c *Config) {})
	if !(naive >= table && table >= analysis) {
		t.Errorf("pivot counts not monotone: naive=%d table=%d analysis=%d", naive, table, analysis)
	}
	if analysis >= naive {
		t.Errorf("filtering had no effect: naive=%d analysis=%d", naive, analysis)
	}
}

func TestStatsConservation(t *testing.T) {
	// Every pivot slot is either filtered (by one of the three mechanisms)
	// or computed.
	rng := rand.New(rand.NewSource(8))
	cfg := testConfig()
	cfg.ExactMatchPrepass = false
	ref := randSeq(rng, 3000)
	p, err := NewPartition(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		p.SeedRead(plantedRead(rng, ref, 70, rng.Intn(6)))
	}
	s := p.Stats
	if s.PivotsTotal != s.PivotsFilteredTable+s.PivotsFilteredCRkM+s.PivotsFilteredAlign+s.PivotsComputed {
		t.Errorf("pivot conservation violated: %+v", s)
	}
	if s.PivotsComputed != s.RMEMSearches {
		t.Errorf("computed pivots %d != RMEM searches %d", s.PivotsComputed, s.RMEMSearches)
	}
	if s.CAMSearches <= 0 || s.CAMRowsEnabled <= 0 {
		t.Errorf("CAM activity missing: %+v", s)
	}
}

func TestEntryGatingReducesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := testConfig()
	ref := randSeq(rng, 4000)
	reads := make([]dna.Sequence, 20)
	for i := range reads {
		reads[i] = plantedRead(rng, ref, 60, 2)
	}
	rows := func(group, entry bool) int64 {
		c := cfg
		c.GroupGating, c.EntryGating = group, entry
		p, err := NewPartition(ref, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reads {
			p.SeedRead(r)
		}
		return p.Stats.CAMRowsEnabled
	}
	gated := rows(true, true)
	naive := rows(false, false)
	if gated >= naive {
		t.Errorf("gating saved nothing: gated=%d naive=%d", gated, naive)
	}
	// The paper reports gating cuts CAM power to ~4.2% of naive; with the
	// small test geometry demand a clear (>2x) reduction.
	if gated*2 > naive {
		t.Errorf("gating reduction too small: gated=%d naive=%d", gated, naive)
	}
}

func TestRollingKmers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	read := randSeq(rng, 60)
	for _, k := range []int{1, 7, 19, 31} {
		got := rollingKmers(nil, read, k)
		if len(got) != len(read)-k+1 {
			t.Fatalf("k=%d: %d kmers", k, len(got))
		}
		for i := range got {
			if got[i] != dna.PackKmer(read, i, k) {
				t.Fatalf("k=%d i=%d: rolling %d != packed %d", k, i, got[i], dna.PackKmer(read, i, k))
			}
		}
		// Scratch reuse must not leak stale entries into a shorter read.
		short := randSeq(rng, k+3)
		again := rollingKmers(got, short, k)
		if len(again) != 4 {
			t.Fatalf("k=%d reuse: %d kmers", k, len(again))
		}
		for i := range again {
			if again[i] != dna.PackKmer(short, i, k) {
				t.Fatalf("k=%d reuse i=%d: rolling != packed", k, i)
			}
		}
	}
	if len(rollingKmers(nil, randSeq(rng, 5), 7)) != 0 {
		t.Error("short read must yield no kmers")
	}
}
