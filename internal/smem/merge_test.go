package smem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// mergeOracle is the pairwise-quadratic statement of the merge rule that
// AppendMerged implements in one linear pass: sort canonically, sum the
// hits of identical intervals, then keep exactly the intervals no other
// (different) interval contains. Empty input returns nil.
func mergeOracle(ms []Match) []Match {
	if len(ms) == 0 {
		return nil
	}
	ms = append([]Match(nil), ms...)
	Sort(ms)
	uniq := ms[:0:0]
	for _, m := range ms {
		if n := len(uniq); n > 0 && uniq[n-1].Start == m.Start && uniq[n-1].End == m.End {
			uniq[n-1].Hits += m.Hits
			continue
		}
		uniq = append(uniq, m)
	}
	var out []Match
	for i, m := range uniq {
		contained := false
		for j, o := range uniq {
			if i != j && o.Contains(m) && (o.Start != m.Start || o.End != m.End) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, m)
		}
	}
	return out
}

// randomCandidates draws a per-strand candidate set the way partitioned
// engines produce one: intervals over a short read, with exact repeats
// (the same match seen by two partitions) and nested intervals (a
// partition-local SMEM inside a longer one found elsewhere). One set in
// fifty exceeds the insertion-sort cutoff.
func randomCandidates(rng *rand.Rand) []Match {
	n := rng.Intn(24)
	if rng.Intn(50) == 0 {
		n = sortInline + rng.Intn(3*sortInline)
	}
	var ms []Match
	for i := 0; i < n; i++ {
		var m Match
		switch k := rng.Intn(4); {
		case k == 0 && len(ms) > 0: // exact repeat
			m = ms[rng.Intn(len(ms))]
		case k == 1 && len(ms) > 0: // nested in an earlier candidate
			o := ms[rng.Intn(len(ms))]
			m.Start = o.Start + rng.Intn(o.Len())
			m.End = m.Start + rng.Intn(o.End-m.Start+1)
		default:
			m.Start = rng.Intn(60)
			m.End = m.Start + rng.Intn(30)
		}
		m.Hits = 1 + rng.Intn(5)
		ms = append(ms, m)
	}
	return ms
}

// TestMergeSMEMs pins the merge rule on a hand-checked set.
func TestMergeSMEMs(t *testing.T) {
	in := []Match{
		{Start: 5, End: 30, Hits: 2},
		{Start: 5, End: 30, Hits: 1}, // duplicate: hits sum
		{Start: 6, End: 29, Hits: 1}, // contained: dropped
		{Start: 0, End: 10, Hits: 1}, // distinct: kept
	}
	got := AppendMerged(nil, in)
	want := []Match{{Start: 0, End: 10, Hits: 1}, {Start: 5, End: 30, Hits: 3}}
	if !Equal(got, want) {
		t.Errorf("AppendMerged = %v, want %v", got, want)
	}
	if AppendMerged(nil, nil) != nil {
		t.Error("AppendMerged(nil, nil) != nil")
	}
}

func TestPropertyMergeSMEMsIdempotent(t *testing.T) {
	f := func(starts []uint8, lens []uint8) bool {
		var ms []Match
		for i := range starts {
			if i >= len(lens) {
				break
			}
			s := int(starts[i]) % 80
			l := 1 + int(lens[i])%40
			ms = append(ms, Match{Start: s, End: s + l, Hits: 1})
		}
		once := AppendMerged(nil, append([]Match(nil), ms...))
		twice := AppendMerged(nil, append([]Match(nil), once...))
		if !Equal(once, twice) {
			return false
		}
		// No merged interval may contain another.
		for i, m := range once {
			for j, o := range once {
				if i != j && o.Contains(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAppendMergedMatchesOracle checks the linear merge against
// the quadratic oracle on 10^5 seeded candidate sets (10^4 under -short),
// appending behind a non-empty prefix that must survive untouched.
func TestPropertyAppendMergedMatchesOracle(t *testing.T) {
	cases := 100_000
	if testing.Short() {
		cases = 10_000
	}
	rng := rand.New(rand.NewSource(15))
	prefix := []Match{{Start: 99, End: 99, Hits: 7}}
	for c := 0; c < cases; c++ {
		cands := randomCandidates(rng)
		want := mergeOracle(cands)
		got := AppendMerged(nil, append([]Match(nil), cands...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: cands %v\n got %v\nwant %v", c, cands, got, want)
		}
		dst := AppendMerged(append([]Match(nil), prefix...), append([]Match(nil), cands...))
		if dst[0] != prefix[0] || !Equal(dst[1:], want) {
			t.Fatalf("case %d: appended after a prefix: got %v, want %v after %v", c, dst, want, prefix)
		}
	}
}

// TestAppendMergedZeroAlloc pins the hot-path contract: with capacity in
// dst, merging allocates nothing, whichever sort the candidate count picks.
func TestAppendMergedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{8, 4 * sortInline} {
		cands := make([]Match, n)
		for i := range cands {
			s := rng.Intn(200)
			cands[i] = Match{Start: s, End: s + rng.Intn(40), Hits: 1}
		}
		work := make([]Match, n)
		dst := make([]Match, 0, n)
		allocs := testing.AllocsPerRun(100, func() {
			copy(work, cands)
			dst = AppendMerged(dst[:0], work)
		})
		if allocs != 0 {
			t.Errorf("n=%d: AppendMerged allocates %.1f times per call", n, allocs)
		}
	}
}

// FuzzAppendMerged drives AppendMerged with arbitrary candidate sets
// (three bytes per candidate: start, length, hits) against the oracle.
func FuzzAppendMerged(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 25, 2, 5, 25, 1, 6, 23, 1, 0, 10, 1})
	f.Add([]byte{0, 40, 1, 0, 40, 1, 3, 5, 9, 3, 5, 9, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cands []Match
		for i := 0; i+2 < len(data); i += 3 {
			s := int(data[i] % 64)
			cands = append(cands, Match{Start: s, End: s + int(data[i+1]%32), Hits: 1 + int(data[i+2]%4)})
		}
		want := mergeOracle(cands)
		if got := AppendMerged(nil, cands); !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	})
}
