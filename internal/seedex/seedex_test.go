package seedex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"casa/internal/align"
	"casa/internal/dna"
)

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := DefaultConfig()
	bad.Machines = 0
	if bad.Validate() == nil {
		t.Error("zero machines accepted")
	}
	bad = DefaultConfig()
	bad.Band = 0
	if bad.Validate() == nil {
		t.Error("zero band accepted")
	}
	bad = DefaultConfig()
	bad.Scoring.Match = 0
	if bad.Validate() == nil {
		t.Error("invalid scoring accepted")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("empty reference accepted")
	}
}

func TestExtendExactRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randSeq(rng, 2000)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const origin = 500
	read := ref[origin : origin+101].Clone()
	seed := Seed{QStart: 10, QEnd: 40, RefPos: origin + 10}
	a, ok := m.ExtendRead(read, []Seed{seed})
	if !ok {
		t.Fatal("extension failed")
	}
	if a.RefStart != origin {
		t.Errorf("RefStart = %d, want %d", a.RefStart, origin)
	}
	if a.Score != 101 {
		t.Errorf("score = %d, want 101 (all matches)", a.Score)
	}
	if a.Cigar.String() != "101M" {
		t.Errorf("cigar = %s", a.Cigar)
	}
	if a.EditDist != 0 {
		t.Errorf("edit distance = %d, want 0", a.EditDist)
	}
}

func TestExtendWithMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := randSeq(rng, 2000)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const origin = 800
	read := ref[origin : origin+101].Clone()
	read[20] ^= 1
	read[70] ^= 2
	seed := Seed{QStart: 30, QEnd: 60, RefPos: origin + 30}
	a, ok := m.ExtendRead(read, []Seed{seed})
	if !ok {
		t.Fatal("extension failed")
	}
	sc := m.Config().Scoring
	want := 99*sc.Match - 2*sc.Mismatch
	if a.Score != want {
		t.Errorf("score = %d, want %d", a.Score, want)
	}
	if a.EditDist != 2 {
		t.Errorf("edit distance = %d, want 2", a.EditDist)
	}
}

func TestExtendPicksBestOfMultipleSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two copies of a motif; the read matches copy B exactly and copy A
	// with mutations.
	motif := randSeq(rng, 101)
	mutated := motif.Clone()
	mutated[5] ^= 1
	mutated[50] ^= 3
	var ref dna.Sequence
	ref = append(ref, randSeq(rng, 300)...)
	aPos := len(ref)
	ref = append(ref, mutated...)
	ref = append(ref, randSeq(rng, 300)...)
	bPos := len(ref)
	ref = append(ref, motif...)
	ref = append(ref, randSeq(rng, 300)...)

	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seeds := []Seed{
		{QStart: 60, QEnd: 90, RefPos: int32(aPos + 60)},
		{QStart: 60, QEnd: 90, RefPos: int32(bPos + 60)},
	}
	a, ok := m.ExtendRead(motif, seeds)
	if !ok {
		t.Fatal("extension failed")
	}
	if a.RefStart != bPos {
		t.Errorf("chose RefStart %d, want the exact copy at %d", a.RefStart, bPos)
	}
	if a.EditDist != 0 {
		t.Errorf("edit distance = %d", a.EditDist)
	}
}

func TestExtendReadWithIndel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randSeq(rng, 1500)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const origin = 400
	window := ref[origin : origin+101]
	// Read = window with 2 bases deleted at 50.
	read := append(window[:50].Clone(), window[52:]...)
	seed := Seed{QStart: 0, QEnd: 40, RefPos: origin}
	a, ok := m.ExtendRead(read, seed0(seed))
	if !ok {
		t.Fatal("extension failed")
	}
	if a.EditDist > 2 {
		t.Errorf("edit distance = %d, want <= 2", a.EditDist)
	}
	hasDel := false
	for _, op := range a.Cigar {
		if op.Op == align.OpDelete {
			hasDel = true
		}
	}
	if !hasDel {
		t.Errorf("deletion not recovered: cigar %s", a.Cigar)
	}
}

func seed0(s Seed) []Seed { return []Seed{s} }

func TestExtendNoSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randSeq(rng, 500)
	m, _ := New(ref, DefaultConfig())
	if _, ok := m.ExtendRead(randSeq(rng, 50), nil); ok {
		t.Error("no-seed extension succeeded")
	}
	if _, ok := m.ExtendRead(nil, []Seed{{0, 10, 5}}); ok {
		t.Error("empty-read extension succeeded")
	}
}

func TestMaxHitsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := randSeq(rng, 3000)
	cfg := DefaultConfig()
	cfg.MaxHits = 3
	m, _ := New(ref, cfg)
	read := ref[100:201].Clone()
	var seeds []Seed
	for i := 0; i < 20; i++ {
		seeds = append(seeds, Seed{QStart: 0, QEnd: 30, RefPos: int32(100 + i)})
	}
	m.ExtendRead(read, seeds)
	if m.Stats.Extensions > 3 {
		t.Errorf("Extensions = %d, cap was 3", m.Stats.Extensions)
	}
}

func TestSecondsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := randSeq(rng, 2000)
	m, _ := New(ref, DefaultConfig())
	if m.Seconds() != 0 {
		t.Error("idle machine has nonzero time")
	}
	for i := 0; i < 10; i++ {
		start := rng.Intn(len(ref) - 101)
		read := ref[start : start+101].Clone()
		m.ExtendRead(read, []Seed{{QStart: 0, QEnd: 50, RefPos: int32(start)}})
	}
	if m.Seconds() <= 0 {
		t.Error("no time accumulated")
	}
	if m.Stats.Extensions != 10 || m.Stats.EditRuns != 10 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestSecondScoreTracksRunnerUp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Two copies of a motif, one exact, one with a mismatch: the winner's
	// SecondScore must reflect the losing placement.
	motif := randSeq(rng, 80)
	worse := motif.Clone()
	worse[10] ^= 1
	var ref dna.Sequence
	ref = append(ref, randSeq(rng, 200)...)
	aPos := len(ref)
	ref = append(ref, worse...)
	ref = append(ref, randSeq(rng, 200)...)
	bPos := len(ref)
	ref = append(ref, motif...)
	ref = append(ref, randSeq(rng, 200)...)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	al, ok := m.ExtendRead(motif, []Seed{
		{QStart: 30, QEnd: 60, RefPos: int32(aPos + 30)},
		{QStart: 30, QEnd: 60, RefPos: int32(bPos + 30)},
	})
	if !ok {
		t.Fatal("extension failed")
	}
	sc := m.Config().Scoring
	if al.Score != 80*sc.Match {
		t.Errorf("winner score = %d", al.Score)
	}
	want := 79*sc.Match - sc.Mismatch
	if al.SecondScore != want {
		t.Errorf("SecondScore = %d, want %d", al.SecondScore, want)
	}
}

func TestSecondScoreUnsetForUniqueHit(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ref := randSeq(rng, 1000)
	m, _ := New(ref, DefaultConfig())
	read := ref[200:280].Clone()
	al, ok := m.ExtendRead(read, []Seed{{QStart: 0, QEnd: 40, RefPos: 200}})
	if !ok {
		t.Fatal("extension failed")
	}
	if al.SecondScore > 0 {
		t.Errorf("unique hit has SecondScore %d", al.SecondScore)
	}
}

func TestSameStartSeedsCollapse(t *testing.T) {
	// Multiple seeds pointing at the same placement are one candidate,
	// not competing evidence (SecondScore must stay unset).
	rng := rand.New(rand.NewSource(11))
	ref := randSeq(rng, 1000)
	m, _ := New(ref, DefaultConfig())
	read := ref[300:380].Clone()
	al, ok := m.ExtendRead(read, []Seed{
		{QStart: 0, QEnd: 30, RefPos: 300},
		{QStart: 40, QEnd: 70, RefPos: 340},
	})
	if !ok {
		t.Fatal("extension failed")
	}
	if al.SecondScore > 0 {
		t.Errorf("same-placement seeds produced SecondScore %d", al.SecondScore)
	}
}

func TestSeedAtReferenceEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := randSeq(rng, 300)
	m, _ := New(ref, DefaultConfig())
	read := ref[:80].Clone()
	// Seed at position 0: window clamps at the reference start.
	a, ok := m.ExtendRead(read, []Seed{{QStart: 0, QEnd: 40, RefPos: 0}})
	if !ok {
		t.Fatal("edge extension failed")
	}
	if a.RefStart != 0 {
		t.Errorf("RefStart = %d, want 0", a.RefStart)
	}
}

// extendReadOracle is ExtendRead as it was before the machine kept
// scratch: a fresh seed copy ordered by sort.Slice, a map from reference
// start to candidate, and the allocating align.BandedFit and
// align.EditDistance. It updates m.Stats the same way.
func extendReadOracle(m *Machine, read dna.Sequence, seeds []Seed) (Alignment, bool) {
	m.Stats.Reads++
	if len(read) == 0 || len(seeds) == 0 {
		return Alignment{}, false
	}
	ordered := append([]Seed(nil), seeds...)
	sort.Slice(ordered, func(i, j int) bool {
		li := ordered[i].QEnd - ordered[i].QStart
		lj := ordered[j].QEnd - ordered[j].QStart
		if li != lj {
			return li > lj
		}
		return ordered[i].RefPos < ordered[j].RefPos
	})
	if len(ordered) > m.cfg.MaxHits {
		ordered = ordered[:m.cfg.MaxHits]
	}
	byStart := map[int]Alignment{}
	for _, s := range ordered {
		diag := int(s.RefPos) - s.QStart
		lo, hi := max(diag-m.cfg.Band, 0), min(diag+len(read)+m.cfg.Band, len(m.ref))
		if hi <= lo {
			continue
		}
		m.Stats.Extensions++
		m.Stats.BSWCycles += int64(len(read) + 2*m.cfg.Band)
		res, ok := align.BandedFit(read, m.ref[lo:hi], 2*m.cfg.Band+2, m.cfg.Scoring)
		if !ok {
			continue
		}
		refStart := lo + res.RefLo
		if prev, dup := byStart[refStart]; !dup || res.Score > prev.Score {
			byStart[refStart] = Alignment{Score: res.Score, RefStart: refStart, Cigar: res.Cigar, Seed: s}
		}
	}
	if len(byStart) == 0 {
		return Alignment{}, false
	}
	best := Alignment{Score: -1 << 30}
	second := -1 << 30
	for _, c := range byStart {
		switch {
		case c.Score > best.Score || (c.Score == best.Score && c.RefStart < best.RefStart):
			if best.Score > -1<<30 {
				second = max(second, best.Score)
			}
			best = c
		default:
			second = max(second, c.Score)
		}
	}
	best.SecondScore = second
	winEnd := best.RefStart + best.Cigar.RefLen()
	m.Stats.EditRuns++
	m.Stats.EditCycles += int64(winEnd - best.RefStart)
	best.EditDist = align.EditDistance(read, m.ref[best.RefStart:winEnd])
	return best, true
}

// repeatRef is a random reference with copies of a few motifs, lightly
// mutated, so reads have several competing placements.
func repeatRef(rng *rand.Rand, n int) dna.Sequence {
	ref := randSeq(rng, n)
	for k := 0; k < 6; k++ {
		motif := ref[rng.Intn(n-150):][:150]
		for c := 0; c < 3; c++ {
			at := rng.Intn(n - 150)
			copy(ref[at:], motif)
			ref[at+rng.Intn(150)] ^= 1
		}
	}
	return ref
}

// TestExtendReadMatchesOracle: on random reads with random seed sets
// (true diagonals, shifted diagonals converging on one start, repeat
// copies, duplicates and junk positions), the scratch-reusing ExtendRead
// returns exactly the oracle's Alignment and leaves identical Stats.
func TestExtendReadMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ref := repeatRef(rng, 4000)
	got, _ := New(ref, DefaultConfig())
	want, _ := New(ref, DefaultConfig())
	for trial := 0; trial < 3000; trial++ {
		n := 40 + rng.Intn(90)
		at := rng.Intn(len(ref) - n)
		read := ref[at : at+n].Clone()
		for e := rng.Intn(6); e > 0; e-- {
			read[rng.Intn(n)] = dna.Base(rng.Intn(4))
		}
		var seeds []Seed
		for s := rng.Intn(14); s > 0; s-- {
			qs := rng.Intn(n - 20)
			qe := qs + 10 + rng.Intn(min(30, n-qs-10))
			pos := at + qs
			switch rng.Intn(4) {
			case 0:
				pos += rng.Intn(7) - 3
			case 1:
				pos = rng.Intn(len(ref))
			}
			seeds = append(seeds, Seed{QStart: qs, QEnd: qe, RefPos: int32(pos)})
			if rng.Intn(4) == 0 {
				seeds = append(seeds, seeds[rng.Intn(len(seeds))])
			}
		}
		g, gok := got.ExtendRead(read, seeds)
		w, wok := extendReadOracle(want, read, seeds)
		if gok != wok || !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d: got %+v ok=%v, want %+v ok=%v", trial, g, gok, w, wok)
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, want.Stats)
	}
}

// extendFixture is a 101 bp read with two substitutions and eight seeds
// over a repeat-rich reference: every candidate of a realistic read.
func extendFixture() (*Machine, dna.Sequence, []Seed) {
	rng := rand.New(rand.NewSource(14))
	ref := repeatRef(rng, 5000)
	m, _ := New(ref, DefaultConfig())
	const origin = 1200
	read := ref[origin : origin+101].Clone()
	read[30] ^= 1
	read[75] ^= 2
	var seeds []Seed
	for k := 0; k < 8; k++ {
		qs := 10 * k
		pos := origin + qs
		if k%3 == 2 {
			pos = rng.Intn(len(ref) - 200)
		}
		seeds = append(seeds, Seed{QStart: qs, QEnd: qs + 20 + k, RefPos: int32(pos)})
	}
	return m, read, seeds
}

// TestExtendReadAllocs: after warm-up, extending a read allocates only
// the returned CIGAR.
func TestExtendReadAllocs(t *testing.T) {
	m, read, seeds := extendFixture()
	if _, ok := m.ExtendRead(read, seeds); !ok {
		t.Fatal("extension failed")
	}
	if n := testing.AllocsPerRun(200, func() { m.ExtendRead(read, seeds) }); n > 1 {
		t.Errorf("ExtendRead allocates %.1f times per call, want <= 1", n)
	}
}

// BenchmarkExtendRead: one 101 bp read with eight seeds per call.
func BenchmarkExtendRead(b *testing.B) {
	m, read, seeds := extendFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.ExtendRead(read, seeds); !ok {
			b.Fatal("extension failed")
		}
	}
}
