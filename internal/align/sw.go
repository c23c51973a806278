package align

import "casa/internal/dna"

// Result is a scored alignment with its coordinates and CIGAR.
type Result struct {
	Score   int
	Cigar   Cigar
	QueryLo int // first aligned query index
	QueryHi int // one past the last aligned query index
	RefLo   int // first aligned reference index
	RefHi   int // one past the last aligned reference index
}

// Local computes the affine-gap Smith-Waterman local alignment of query
// against ref with full O(nm) dynamic programming and traceback. This is
// the golden reference for the banded cores.
func Local(query, ref dna.Sequence, sc Scoring) Result {
	n, m := len(query), len(ref)
	// H: best score ending at (i, j); E: gap in query (deletion run);
	// F: gap in ref (insertion run).
	H := mat(n+1, m+1)
	E := mat(n+1, m+1)
	F := mat(n+1, m+1)
	const neg = -1 << 28
	for j := 0; j <= m; j++ {
		E[0][j], F[0][j] = neg, neg
	}
	best, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		E[i][0], F[i][0] = neg, neg
		for j := 1; j <= m; j++ {
			E[i][j] = maxInt(E[i][j-1]-sc.GapExtend, H[i][j-1]-sc.GapOpen-sc.GapExtend)
			F[i][j] = maxInt(F[i-1][j]-sc.GapExtend, H[i-1][j]-sc.GapOpen-sc.GapExtend)
			diag := H[i-1][j-1] + sc.sub(query[i-1], ref[j-1])
			h := maxInt(0, maxInt(diag, maxInt(E[i][j], F[i][j])))
			H[i][j] = h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	// Traceback from the best cell to the first zero cell.
	var cg Cigar
	i, j := bi, bj
	for i > 0 && j > 0 && H[i][j] > 0 {
		switch {
		case H[i][j] == H[i-1][j-1]+sc.sub(query[i-1], ref[j-1]):
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case H[i][j] == E[i][j]:
			// Walk the deletion run.
			for j > 0 && H[i][j] == E[i][j] && E[i][j] == E[i][j-1]-sc.GapExtend {
				cg = appendOp(cg, OpDelete, 1)
				j--
			}
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			for i > 0 && H[i][j] == F[i][j] && F[i][j] == F[i-1][j]-sc.GapExtend {
				cg = appendOp(cg, OpInsert, 1)
				i--
			}
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	cg = reverseCigar(cg)
	return Result{Score: best, Cigar: cg, QueryLo: i, QueryHi: bi, RefLo: j, RefHi: bj}
}

// Scratch is the reusable working memory of BandedFit and EditDistance:
// callers that align many reads (a SeedEx machine) keep one and pay for
// its buffers once. The zero value is ready to use. A Scratch must not be
// shared between goroutines, and a Result it returns aliases it: the
// Cigar stays valid until the next call on the same Scratch.
type Scratch struct {
	h, e  []int32 // band-only H and E rows at a fixed stride, kept for the traceback
	f     []int32 // F of the previous and the current row
	cigar Cigar   // traceback buffer

	peq    [][dna.NumBases]uint64 // Myers pattern bitmasks per 64-base block
	pv, mv []uint64               // Myers vertical deltas per block
}

// BandedFit computes a fitting alignment with a fresh Scratch; see
// Scratch.BandedFit. The returned Cigar is the caller's own.
func BandedFit(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	var s Scratch
	return s.BandedFit(query, ref, band, sc)
}

// BandedFit computes a fitting alignment: the whole query aligned against
// any window of ref (free leading and trailing reference bases), with the
// DP restricted to |j - i| <= band. This is the seed-extension shape: the
// read must align end-to-end while the reference window is padded by the
// band on both sides. ok is false when no in-band fit exists.
//
// Only in-band cells are stored: row i keeps columns max(0,i-band) ..
// min(m,i+band) at a stride of min(2*band+1, m+1), so each of H and E
// holds at most (n+1) x that stride cells, however wide the window; F
// needs only the previous row. Ties in the traceback prefer the
// diagonal, then a deletion, then an insertion. Scores must fit in int32.
func (s *Scratch) BandedFit(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	n, m := len(query), len(ref)
	if band < 1 {
		band = 1
	}
	if n == 0 || n-band > m {
		// No query, or the last row's band lies past the window's end.
		return Result{}, false
	}
	const neg int32 = -1 << 28
	w := min(2*band+1, m+1)
	s.h, s.e, s.f = grow(s.h, (n+1)*w), grow(s.e, (n+1)*w), grow(s.f, 2*w)
	h, e := s.h, s.e
	ge, goe := int32(sc.GapExtend), int32(sc.GapOpen+sc.GapExtend)
	match, mismatch := int32(sc.Match), int32(-sc.Mismatch)
	fBelow := max(neg-ge, neg-goe) // F under a cell the previous row's band misses
	// Free start anywhere within the band-reachable prefix of ref.
	fPrev, fCur := s.f[:w], s.f[w:]
	for j := 0; j <= min(m, band); j++ {
		h[j], e[j], fPrev[j] = 0, neg, neg
	}
	for i := 1; i <= n; i++ {
		lo, hi := max(0, i-band), min(m, i+band)
		plo, phi := max(0, i-1-band), min(m, i-1+band)
		hRow, eRow := h[i*w:i*w+hi-lo+1], e[i*w:i*w+hi-lo+1]
		// Column j sits at k = j-lo in this row and at k+d in the one above.
		d := lo - plo
		hUp := h[(i-1)*w : (i-1)*w+phi-plo+1]
		eL, hL := neg, neg
		k0 := 0
		if lo == 0 {
			// Column 0: the query prefix inserted before the window.
			h0 := -int32(sc.GapOpen + i*sc.GapExtend)
			hRow[0], eRow[0], fCur[0] = h0, neg, h0
			hL = h0
			k0 = 1
		}
		// Columns the row above covers (j <= phi), then at most one past it.
		kUp := min(hi, phi) - lo + 1
		// The substitution scores of this query base, indexed by ref base.
		profile := [dna.NumBases]int32{mismatch, mismatch, mismatch, mismatch}
		profile[query[i-1]&3] = match
		win := ref[lo+k0-1 : lo+kUp-1]
		cols := len(win)
		hUpIn, fUpIn := hUp[k0+d:][:cols], fPrev[k0+d:][:cols]
		hOut, eOut, fOut := hRow[k0:][:cols], eRow[k0:][:cols], fCur[k0:][:cols]
		dv := hUp[k0+d-1] // H diagonally above the first column
		for x, r := range win {
			ev := max(eL-ge, hL-goe)
			up := hUpIn[x]
			fv := max(fUpIn[x]-ge, up-goe)
			diag := neg
			if dv > neg/2 {
				diag = dv + profile[r&3]
			}
			hv := max(diag, ev, fv)
			hOut[x], eOut[x], fOut[x] = hv, ev, fv
			eL, hL, dv = ev, hv, up
		}
		if k := kUp; k < len(hRow) {
			// j = i+band: above the row above's band, so F comes from neg.
			ev := max(eL-ge, hL-goe)
			diag := neg
			if dv := hUp[k+d-1]; dv > neg/2 {
				diag = dv + profile[ref[lo+k-1]&3]
			}
			hRow[k], eRow[k], fCur[k] = max(diag, ev, fBelow), ev, fBelow
		}
		fPrev, fCur = fCur, fPrev
	}
	// Free end: best cell on the last query row.
	lo := max(0, n-band)
	bestJ, best := -1, neg
	for k, v := range h[n*w : n*w+min(m, n+band)-lo+1] {
		if v > best {
			best, bestJ = v, lo+k
		}
	}
	if bestJ < 0 || best <= neg/2 {
		return Result{}, false
	}
	// Traceback to the first query row; cells outside the band read neg.
	at := func(mat []int32, i, j int) int32 {
		if lo := max(0, i-band); j >= lo && j <= min(m, i+band) {
			return mat[i*w+j-lo]
		}
		return neg
	}
	cg := s.cigar[:0]
	i, j := n, bestJ
	for i > 0 {
		hij := at(h, i, j)
		switch {
		case j > 0 && at(h, i-1, j-1) > neg/2 && int(hij) == int(at(h, i-1, j-1))+sc.sub(query[i-1], ref[j-1]):
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case j > 0 && hij == at(e, i, j):
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	cg = reverseCigar(cg)
	s.cigar = cg
	return Result{Score: int(best), Cigar: cg, QueryHi: n, RefLo: j, RefHi: bestJ}, true
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sub returns the substitution score for a pair of bases.
func (s Scoring) sub(a, b dna.Base) int {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

func mat(n, m int) [][]int {
	backing := make([]int, n*m)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = backing[i*m : (i+1)*m]
	}
	return rows
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
