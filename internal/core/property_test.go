package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"casa/internal/dna"
	"casa/internal/smem"
)

// Property-based tests (testing/quick) over the core data structures and
// invariants: the pre-seeding filter's exactness, search-indicator
// algebra, SMEM merging, and Algorithm 1's output structure.

// seqFromBytes maps raw fuzz bytes onto a DNA sequence.
func seqFromBytes(raw []byte) dna.Sequence {
	s := make(dna.Sequence, len(raw))
	for i, c := range raw {
		s[i] = dna.Base(c & 3)
	}
	return s
}

func TestPropertyFilterExactness(t *testing.T) {
	cfg := testConfig()
	f := func(raw []byte, probe uint32) bool {
		if len(raw) < cfg.K {
			return true
		}
		if len(raw) > 800 {
			raw = raw[:800]
		}
		part := seqFromBytes(raw)
		filter, err := BuildFilter(part, cfg)
		if err != nil {
			return false
		}
		// A probe k-mer is reported present iff it occurs in the partition.
		km := dna.Kmer(probe) % dna.Kmer(dna.NumKmers(cfg.K))
		want := false
		for i := 0; i+cfg.K <= len(part); i++ {
			if dna.PackKmer(part, i, cfg.K) == km {
				want = true
				break
			}
		}
		_, got := filter.Lookup(km)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIndicatorSubsumesOccurrences(t *testing.T) {
	cfg := testConfig()
	f := func(raw []byte) bool {
		if len(raw) < cfg.K {
			return true
		}
		if len(raw) > 600 {
			raw = raw[:600]
		}
		part := seqFromBytes(raw)
		filter, err := BuildFilter(part, cfg)
		if err != nil {
			return false
		}
		// Every occurrence's start offset and group must be present in the
		// indicator, and the indicator must contain nothing else.
		for i := 0; i+cfg.K <= len(part); i += 5 {
			km := dna.PackKmer(part, i, cfg.K)
			ind, ok := filter.Lookup(km)
			if !ok {
				return false
			}
			var want SearchIndicator
			for _, pos := range filter.Positions(km) {
				want = want.addOccurrence(int(pos), cfg.Stride, cfg.Groups)
			}
			if ind != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySeedReadOutputStructure(t *testing.T) {
	// Structural invariants of Algorithm 1's output on arbitrary inputs:
	// SMEMs sorted with strictly increasing starts AND ends, length >=
	// MinSMEM, positive hit counts, within read bounds.
	rng := rand.New(rand.NewSource(99))
	cfg := testConfig()
	part := randSeq(rng, 1500)
	p, err := NewPartition(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		read := seqFromBytes(raw)
		out := p.SeedRead(read)
		prevStart, prevEnd := -1, -1
		for _, m := range out {
			if m.Start < 0 || m.End >= len(read) || m.Len() < cfg.MinSMEM || m.Hits <= 0 {
				return false
			}
			if m.Start <= prevStart || m.End <= prevEnd {
				return false
			}
			prevStart, prevEnd = m.Start, m.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPivotFilterSafety(t *testing.T) {
	// The analyses must never change the result set, only the work: for
	// random reads, table+analysis output == table-only output == golden.
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig()
	part := randSeq(rng, 1000)
	withA, err := NewPartition(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgNoA := cfg
	cfgNoA.UseAnalysis = false
	withoutA, err := NewPartition(part, cfgNoA)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte, plant bool, mutations uint8) bool {
		var read dna.Sequence
		if plant && len(part) > 60 {
			start := int(mutations) % (len(part) - 50)
			read = part[start : start+50].Clone()
			for m := 0; m < int(mutations%5); m++ {
				read[(m*13)%len(read)] ^= 1
			}
		} else {
			if len(raw) > 120 {
				raw = raw[:120]
			}
			read = seqFromBytes(raw)
		}
		a := withA.SeedRead(read)
		b := withoutA.SeedRead(read)
		return smem.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExactCheckSoundness(t *testing.T) {
	// ExactCheck may miss (conservative) but must never claim a match for
	// a read that does not occur, and its hit count must equal the true
	// occurrence count when it does match.
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig()
	part := randSeq(rng, 800)
	p, err := NewPartition(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden := smem.BruteForce{Ref: part}
	f := func(raw []byte, plant bool, off uint16) bool {
		var read dna.Sequence
		if plant {
			start := int(off) % (len(part) - 40)
			read = part[start : start+40].Clone()
		} else {
			if len(raw) < cfg.K {
				return true
			}
			if len(raw) > 60 {
				raw = raw[:60]
			}
			read = seqFromBytes(raw)
		}
		hits, ok := p.ExactCheck(read)
		if !ok {
			return true // misses are allowed (conservative)
		}
		want := golden.FindSMEMs(read, len(read))
		return len(want) == 1 && want[0].Hits == hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
