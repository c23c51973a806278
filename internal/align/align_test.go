package align

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"casa/internal/dna"
)

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestScoringValidate(t *testing.T) {
	if err := BWAMEM2().Validate(); err != nil {
		t.Error(err)
	}
	if (Scoring{Match: 0, Mismatch: 4, GapOpen: 6, GapExtend: 1}).Validate() == nil {
		t.Error("zero match score accepted")
	}
}

func TestCigarString(t *testing.T) {
	c := Cigar{{OpMatch, 10}, {OpInsert, 2}, {OpMatch, 5}, {OpDelete, 1}}
	if got := c.String(); got != "10M2I5M1D" {
		t.Errorf("String = %q", got)
	}
	if c.QueryLen() != 17 {
		t.Errorf("QueryLen = %d, want 17", c.QueryLen())
	}
	if c.RefLen() != 16 {
		t.Errorf("RefLen = %d, want 16", c.RefLen())
	}
}

func TestAppendOpMerges(t *testing.T) {
	var c Cigar
	c = appendOp(c, OpMatch, 3)
	c = appendOp(c, OpMatch, 2)
	c = appendOp(c, OpInsert, 1)
	c = appendOp(c, OpInsert, 0) // no-op
	if len(c) != 2 || c[0].Len != 5 || c[1].Len != 1 {
		t.Errorf("appendOp = %v", c)
	}
}

func TestLocalExactMatch(t *testing.T) {
	sc := BWAMEM2()
	ref := dna.FromString("TTTACGTACGTAAA")
	q := dna.FromString("ACGTACGT")
	r := Local(q, ref, sc)
	if r.Score != 8 {
		t.Errorf("score = %d, want 8", r.Score)
	}
	if r.Cigar.String() != "8M" {
		t.Errorf("cigar = %s", r.Cigar)
	}
	if r.RefLo != 3 || r.RefHi != 11 {
		t.Errorf("ref window [%d,%d)", r.RefLo, r.RefHi)
	}
}

func TestLocalMismatch(t *testing.T) {
	sc := BWAMEM2()
	// One substitution in the middle: 12 matches - 1 mismatch = 12-4 = 8.
	ref := dna.FromString("AACCGGTTAACCG")
	q := ref.Clone()
	q[6] = q[6] ^ 1
	r := Local(q, ref, sc)
	if r.Score != 12-4 {
		t.Errorf("score = %d, want 8", r.Score)
	}
}

func TestLocalGap(t *testing.T) {
	sc := BWAMEM2()
	ref := dna.FromString("ACGTACGTACGTACGTACGT")
	// Query = ref with 2 bases deleted: 18 matches - open(6) - 2*ext(1).
	q := append(ref[:8].Clone(), ref[10:]...)
	r := Local(q, ref, sc)
	want := 18 - sc.GapOpen - 2*sc.GapExtend
	if r.Score != want {
		t.Errorf("score = %d, want %d (cigar %s)", r.Score, want, r.Cigar)
	}
}

func TestLocalScoreNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		q, ref := randSeq(rng, 20), randSeq(rng, 40)
		if r := Local(q, ref, BWAMEM2()); r.Score < 0 {
			t.Fatalf("negative local score %d", r.Score)
		}
	}
}

func TestLocalCigarConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc := BWAMEM2()
	for trial := 0; trial < 50; trial++ {
		ref := randSeq(rng, 120)
		start := rng.Intn(40)
		q := ref[start : start+60].Clone()
		for i := 0; i < rng.Intn(5); i++ {
			q[rng.Intn(len(q))] = dna.Base(rng.Intn(4))
		}
		r := Local(q, ref, sc)
		if got := r.Cigar.QueryLen(); got != r.QueryHi-r.QueryLo {
			t.Fatalf("cigar query len %d != window %d", got, r.QueryHi-r.QueryLo)
		}
		if got := r.Cigar.RefLen(); got != r.RefHi-r.RefLo {
			t.Fatalf("cigar ref len %d != window %d", got, r.RefHi-r.RefLo)
		}
		// Recompute the score from the CIGAR.
		score, qi, ri := 0, r.QueryLo, r.RefLo
		for _, op := range r.Cigar {
			switch op.Op {
			case OpMatch:
				for x := 0; x < op.Len; x++ {
					score += sc.sub(q[qi], ref[ri])
					qi++
					ri++
				}
			case OpInsert:
				score -= sc.GapOpen + op.Len*sc.GapExtend
				qi += op.Len
			case OpDelete:
				score -= sc.GapOpen + op.Len*sc.GapExtend
				ri += op.Len
			}
		}
		if score != r.Score {
			t.Fatalf("cigar-derived score %d != %d (cigar %s)", score, r.Score, r.Cigar)
		}
	}
}

func TestBandedFitExactInsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := BWAMEM2()
	ref := randSeq(rng, 80)
	q := ref[20:60].Clone()
	r, ok := BandedFit(q, ref[12:70], 20, sc)
	if !ok {
		t.Fatal("fit rejected")
	}
	if r.Score != 40 || r.Cigar.String() != "40M" {
		t.Errorf("fit = %+v (%s)", r.Score, r.Cigar)
	}
	if r.RefLo != 8 || r.RefHi != 48 {
		t.Errorf("fit window [%d,%d), want [8,48)", r.RefLo, r.RefHi)
	}
}

func TestBandedFitNoFreeEndPenalty(t *testing.T) {
	// Unaligned window flanks must not cost anything (the bug a global
	// aligner would have here).
	sc := BWAMEM2()
	q := dna.FromString("ACGTACGT")
	window := dna.FromString("TTTTACGTACGTTTTT")
	r, ok := BandedFit(q, window, 10, sc)
	if !ok || r.Score != 8 {
		t.Errorf("fit score = %d ok=%v, want 8", r.Score, ok)
	}
}

func TestBandedFitQuerySpansFully(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sc := BWAMEM2()
	for trial := 0; trial < 30; trial++ {
		ref := randSeq(rng, 120)
		q := ref[30:80].Clone()
		for i := 0; i < rng.Intn(4); i++ {
			q[rng.Intn(len(q))] = dna.Base(rng.Intn(4))
		}
		r, ok := BandedFit(q, ref[22:90], 18, sc)
		if !ok {
			t.Fatal("fit rejected")
		}
		if r.Cigar.QueryLen() != len(q) {
			t.Fatalf("query not fully aligned: %s", r.Cigar)
		}
		if r.Cigar.RefLen() != r.RefHi-r.RefLo {
			t.Fatalf("ref window inconsistent: %s vs [%d,%d)", r.Cigar, r.RefLo, r.RefHi)
		}
	}
}

func TestBandedFitEmptyQuery(t *testing.T) {
	if _, ok := BandedFit(nil, dna.FromString("ACGT"), 4, BWAMEM2()); ok {
		t.Error("empty query accepted")
	}
}

// bandedFitFull is the full-matrix banded fit BandedFit replaced: three
// (n+1)x(m+1) matrices filled with neg, of which the DP touches only the
// band. It is the golden oracle the band-only kernel must equal exactly,
// traceback tie-breaks included.
func bandedFitFull(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	n, m := len(query), len(ref)
	if band < 1 {
		band = 1
	}
	if n == 0 {
		return Result{}, false
	}
	const neg = -1 << 28
	H := mat(n+1, m+1)
	E := mat(n+1, m+1)
	F := mat(n+1, m+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			H[i][j], E[i][j], F[i][j] = neg, neg, neg
		}
	}
	// Free start anywhere within the band-reachable prefix of ref.
	for j := 0; j <= minInt(m, band); j++ {
		H[0][j] = 0
	}
	for i := 1; i <= n; i++ {
		lo := maxInt(1, i-band)
		hi := minInt(m, i+band)
		if i <= band {
			H[i][0] = -sc.GapOpen - i*sc.GapExtend
			F[i][0] = H[i][0]
		}
		for j := lo; j <= hi; j++ {
			E[i][j] = maxInt(E[i][j-1]-sc.GapExtend, H[i][j-1]-sc.GapOpen-sc.GapExtend)
			F[i][j] = maxInt(F[i-1][j]-sc.GapExtend, H[i-1][j]-sc.GapOpen-sc.GapExtend)
			diag := neg
			if H[i-1][j-1] > neg/2 {
				diag = H[i-1][j-1] + sc.sub(query[i-1], ref[j-1])
			}
			H[i][j] = maxInt(diag, maxInt(E[i][j], F[i][j]))
		}
	}
	// Free end: best cell on the last query row.
	bestJ, bestScore := -1, neg
	for j := maxInt(0, n-band); j <= minInt(m, n+band); j++ {
		if H[n][j] > bestScore {
			bestScore, bestJ = H[n][j], j
		}
	}
	if bestJ < 0 || bestScore <= neg/2 {
		return Result{}, false
	}
	// Traceback to the first query row.
	var cg Cigar
	i, j := n, bestJ
	for i > 0 {
		switch {
		case j > 0 && H[i][j] == H[i-1][j-1]+sc.sub(query[i-1], ref[j-1]) && H[i-1][j-1] > neg/2:
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case j > 0 && H[i][j] == E[i][j]:
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	cg = reverseCigar(cg)
	return Result{Score: bestScore, Cigar: cg, QueryHi: n, RefLo: j, RefHi: bestJ}, true
}

// mutate copies s with each base substituted at rate sub and an indel
// (a base dropped or inserted, evenly) at rate indel.
func mutate(rng *rand.Rand, s dna.Sequence, sub, indel float64) dna.Sequence {
	out := make(dna.Sequence, 0, len(s)+len(s)/4)
	for _, b := range s {
		if rng.Float64() < indel {
			if rng.Intn(2) == 0 {
				continue
			}
			out = append(out, dna.Base(rng.Intn(4)))
		}
		if rng.Float64() < sub {
			b = dna.Base(rng.Intn(4))
		}
		out = append(out, b)
	}
	return out
}

// fitCase draws one banded-fit input: a query (mostly short, sometimes
// read-length), a window holding a mutated copy of it between random
// flanks, and a band of 1-30. One case in eight has a band at least as
// wide as the window (the mate-rescue shape), and one in eight a window
// cut shorter than the query. The scoring is BWA-MEM2's or, one case in
// four, random small penalties that multiply the traceback ties.
func fitCase(rng *rand.Rand) (query, window dna.Sequence, band int, sc Scoring) {
	n := 1 + rng.Intn(40)
	if rng.Intn(16) == 0 {
		n = 101
	}
	query = randSeq(rng, n)
	body := mutate(rng, query, 0.3*rng.Float64(), 0.3*rng.Float64())
	window = append(append(randSeq(rng, rng.Intn(12)), body...), randSeq(rng, rng.Intn(12))...)
	if rng.Intn(8) == 0 {
		window = window[:rng.Intn(minInt(len(window), n)+1)]
	}
	band = 1 + rng.Intn(30)
	if rng.Intn(8) == 0 {
		band = len(window) + rng.Intn(8)
	}
	sc = BWAMEM2()
	if rng.Intn(4) == 0 {
		sc = Scoring{Match: 1 + rng.Intn(3), Mismatch: rng.Intn(7), GapOpen: rng.Intn(9), GapExtend: 1 + rng.Intn(3)}
	}
	return query, window, band, sc
}

// checkFit asserts that s.BandedFit equals the full-matrix oracle on one
// input: the same ok, score, coordinates and CIGAR, op for op.
func checkFit(t testing.TB, s *Scratch, query, window dna.Sequence, band int, sc Scoring) {
	t.Helper()
	want, wantOK := bandedFitFull(query, window, band, sc)
	got, gotOK := s.BandedFit(query, window, band, sc)
	if gotOK != wantOK || got.Score != want.Score || got.QueryLo != want.QueryLo || got.QueryHi != want.QueryHi ||
		got.RefLo != want.RefLo || got.RefHi != want.RefHi || !slices.Equal(got.Cigar, want.Cigar) {
		t.Fatalf("band %d scoring %+v\nquery  %s\nwindow %s\ngot  ok=%v %d %s [%d,%d)\nwant ok=%v %d %s [%d,%d)",
			band, sc, query, window, gotOK, got.Score, got.Cigar, got.RefLo, got.RefHi,
			wantOK, want.Score, want.Cigar, want.RefLo, want.RefHi)
	}
}

// TestBandedFitMatchesOracle: 10^5 seeded random inputs give the band-only
// kernel's exact Result and ok. One shared Scratch is reused across cases
// (stale cells must never leak into a later call); every eighth case runs
// on a fresh one, whose buffers must fit (n+1) x min(2*band+1, m+1) cells
// per matrix.
func TestBandedFitMatchesOracle(t *testing.T) {
	cases := 100_000
	if testing.Short() {
		cases = 10_000
	}
	rng := rand.New(rand.NewSource(12))
	var shared Scratch
	for c := 0; c < cases; c++ {
		query, window, band, sc := fitCase(rng)
		s := &shared
		if c%8 == 0 {
			s = new(Scratch)
		}
		checkFit(t, s, query, window, band, sc)
		if s != &shared {
			cells := (len(query) + 1) * minInt(2*maxInt(band, 1)+1, len(window)+1)
			if cap(s.h) > cells || cap(s.e) > cells || cap(s.f) > cells {
				t.Fatalf("n=%d m=%d band=%d: scratch %d/%d/%d cells, bound %d",
					len(query), len(window), band, cap(s.h), cap(s.e), cap(s.f), cells)
			}
		}
	}
}

// FuzzBandedFit checks the band-only kernel against the full-matrix
// oracle on arbitrary query/window pairs and bands, reusing one Scratch
// across inputs.
func FuzzBandedFit(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1}, []byte{3, 0, 1, 2, 3, 0, 1, 2}, uint8(2), false)
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1}, uint8(1), true)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{1, 1, 1, 0, 1, 1, 1, 1, 1}, uint8(40), false)
	var s Scratch
	toSeq := func(raw []byte) dna.Sequence {
		seq := make(dna.Sequence, minInt(len(raw), 160))
		for i := range seq {
			seq[i] = dna.Base(raw[i] & 3)
		}
		return seq
	}
	f.Fuzz(func(t *testing.T, q, w []byte, band uint8, ties bool) {
		sc := BWAMEM2()
		if ties {
			sc = Scoring{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1}
		}
		checkFit(t, &s, toSeq(q), toSeq(w), int(band), sc)
	})
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACGT", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACCT", 1},
		{"ACGT", "AGT", 1},
		{"ACGT", "TGCA", 4},
		{"AAAA", "TTTT", 4},
	}
	for _, c := range cases {
		got := EditDistance(dna.FromString(c.a), dna.FromString(c.b))
		if got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestEditDistanceMatchesDP also runs every case on one shared Scratch,
// whose bit vectors are reused across pattern lengths.
func TestEditDistanceMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var shared Scratch
	for trial := 0; trial < 200; trial++ {
		a := randSeq(rng, rng.Intn(150))
		b := a.Clone()
		// Derive b from a with random edits so distances vary.
		for i := 0; i < rng.Intn(10); i++ {
			switch rng.Intn(3) {
			case 0:
				if len(b) > 0 {
					b[rng.Intn(len(b))] = dna.Base(rng.Intn(4))
				}
			case 1:
				if len(b) > 1 {
					p := rng.Intn(len(b))
					b = append(b[:p], b[p+1:]...)
				}
			default:
				p := rng.Intn(len(b) + 1)
				b = append(b[:p], append(dna.Sequence{dna.Base(rng.Intn(4))}, b[p:]...)...)
			}
		}
		want := EditDistanceDP(a, b)
		if got := EditDistance(a, b); got != want {
			t.Fatalf("EditDistance = %d, DP = %d\na=%s\nb=%s", got, want, a, b)
		}
		if got := shared.EditDistance(a, b); got != want {
			t.Fatalf("reused Scratch: EditDistance = %d, DP = %d\na=%s\nb=%s", got, want, a, b)
		}
	}
}

func TestEditDistanceCrossesBlockBoundary(t *testing.T) {
	// Patterns of length 63, 64, 65, 128, 129 hit every block-edge case.
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		a := randSeq(rng, n)
		b := a.Clone()
		b[n/2] ^= 1
		if got := EditDistance(a, b); got != 1 {
			t.Errorf("n=%d: distance = %d, want 1", n, got)
		}
		c := randSeq(rng, n+30)
		if got, want := EditDistance(a, c), EditDistanceDP(a, c); got != want {
			t.Errorf("n=%d: blocked %d != DP %d", n, got, want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	f := func(raw1, raw2 []byte) bool {
		if len(raw1) > 200 {
			raw1 = raw1[:200]
		}
		if len(raw2) > 200 {
			raw2 = raw2[:200]
		}
		a := make(dna.Sequence, len(raw1))
		for i, c := range raw1 {
			a[i] = dna.Base(c & 3)
		}
		b := make(dna.Sequence, len(raw2))
		for i, c := range raw2 {
			b[i] = dna.Base(c & 3)
		}
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEditDistanceMyers101(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := randSeq(rng, 101), randSeq(rng, 101)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EditDistance(x, y)
	}
}

func BenchmarkEditDistanceDP101(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, y := randSeq(rng, 101), randSeq(rng, 101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EditDistanceDP(x, y)
	}
}

// benchFit times BandedFit on a read with 3% substitutions placed inside
// a window of the given padding on each side, reusing one Scratch.
func benchFit(b *testing.B, n, pad, band int) {
	rng := rand.New(rand.NewSource(13))
	query := randSeq(rng, n)
	body := mutate(rng, query, 0.03, 0)
	window := append(append(randSeq(rng, pad), body...), randSeq(rng, pad)...)
	sc := BWAMEM2()
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.BandedFit(query, window, band, sc); !ok {
			b.Fatal("fit rejected")
		}
	}
}

// BenchmarkBandedFit: the SeedEx extension shape (a 101 bp read against
// its seed diagonal padded by the default 8-base band, fit band 18) and
// the mate-rescue shape (a 101 bp mate in a ~2 kbp insert window with the
// band spanning the whole window).
func BenchmarkBandedFit(b *testing.B) {
	b.Run("seedex", func(b *testing.B) { benchFit(b, 101, 8, 18) })
	b.Run("rescue", func(b *testing.B) { benchFit(b, 101, 975, 1966) })
}
