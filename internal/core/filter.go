package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"casa/internal/dna"
)

// FilterStats counts pre-seeding filter activity for the cycle and energy
// models. Tag rows searched reflects the range decoder's power gating:
// only the rows between the mini-index start/end pointers are enabled
// (§4.1, "the start and end pointers fetched from the mini-index table are
// decoded in a range decoder to power-gating corresponding entries").
type FilterStats struct {
	Lookups        int64 // k-mer existence queries
	Hits           int64 // queries that found the k-mer
	MiniAccesses   int64 // mini index table reads
	TagSearches    int64 // tag-array search operations
	TagRowsEnabled int64 // tag rows activated across all searches
	DataAccesses   int64 // data-array (search indicator) reads
}

// add accumulates o into s.
func (s *FilterStats) add(o FilterStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.MiniAccesses += o.MiniAccesses
	s.TagSearches += o.TagSearches
	s.TagRowsEnabled += o.TagRowsEnabled
	s.DataAccesses += o.DataAccesses
}

// refFilter is the pre-seeding filter of the whole reference as the host
// stores it: one mini index over m-mer prefixes and one tag array with a
// row for every (k-mer, partition) pair in which the k-mer occurs, sorted
// by k-mer and then partition. A host lookup is one mini-index read and
// one search of one tag range however many partitions the reference has,
// and a hit names every partition holding the k-mer with that partition's
// search indicator and occurrence positions — the search-every-row-once
// idea of BioSEAL and ReCAM PRinS.
//
// The modelled hardware still holds one filter per partition (Fig 8) and
// searches it once per partition pass; Filter is that per-partition view.
// A partition's tag range for a prefix is the subset of the prefix's rows
// that belong to it, so the rows its range decoder enables
// (TagRowsEnabled) are counted from the shared range.
//
// The tag array stores only the k-mers that exist, so capacity grows
// linearly in the reference (O(4^m + n)) instead of exponentially in k.
// The behavioural model additionally keeps each row's sorted occurrence
// positions; the hardware recovers them by CAM matching, but the SMEM
// computing model needs them to resolve hits without a bit-level search of
// millions of entries per pivot.
type refFilter struct {
	cfg       Config
	mini      []int32  // len 4^M+1: prefix x's rows are rows[mini[x]:mini[x+1]]
	rows      []tagRow // by (k-mer, partition); a sentinel closes the last position range
	groups    []uint64 // per-row group masks when Stride+Groups exceeds 64 bits; nil otherwise
	positions []int32  // partition-local occurrence positions in row order
	distinct  []int    // distinct k-mers per partition

	// Derived from cfg once (initDerived) so the per-lookup hot path does
	// not recompute the tag split on every call.
	suffixBits uint
	suffixMask uint64
	startMask  uint64
}

// tagRow is one tag-array row: a k-mer present in one partition.
type tagRow struct {
	tag  uint64 // the k-mer's (k-m)-mer suffix
	ind  uint64 // search indicator: StartMask | GroupMask<<Stride, or StartMask alone when groups is set
	pos  int32  // first of the row's positions; the next row's pos ends them
	part int32  // partition holding the k-mer
}

func (g *refFilter) initDerived() {
	g.suffixBits = uint(2 * (g.cfg.K - g.cfg.M))
	g.suffixMask = uint64(1)<<g.suffixBits - 1
	g.startMask = uint64(1)<<uint(g.cfg.Stride) - 1
}

// checkMiniIndex bounds the 4^M-row mini index by the index it serves:
// max(4^10, stored positions) rows, so a geometry read from an untrusted
// index cannot force an allocation far beyond the positions it stores.
func checkMiniIndex(cfg Config, positions int) error {
	if rows := dna.NumKmers(cfg.M); rows > max(dna.NumKmers(10), positions) {
		return fmt.Errorf("core: m=%d needs a %d-row mini index for %d stored positions (limit max(4^10, positions))", cfg.M, rows, positions)
	}
	return nil
}

// BuildFilter constructs the filter for one reference partition. Building
// happens offline in the paper (§4.1, "CASA builds the mini index table
// and the tag table offline for each reference partition").
func BuildFilter(part dna.Sequence, cfg Config) (*Filter, error) {
	packed := dna.Pack(part)
	positions, err := sortPositions(packed, cfg)
	if err != nil {
		return nil, err
	}
	if err := checkMiniIndex(cfg, len(positions)); err != nil {
		return nil, err
	}
	g, err := newRefFilter(cfg, []*dna.PackedSeq{packed}, [][]int32{positions})
	if err != nil {
		return nil, err
	}
	return g.view(0), nil
}

// sortPositions returns one partition's k-mer occurrence positions in
// (k-mer, position) order. Sorting is the only step loading an index
// skips: both paths hand the sorted positions to newRefFilter.
func sortPositions(part *dna.PackedSeq, cfg Config) ([]int32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if part.Len() > cfg.PartitionBases {
		return nil, fmt.Errorf("core: partition of %d bases exceeds configured %d", part.Len(), cfg.PartitionBases)
	}
	posBits := uint(bitsFor(part.Len()))
	if 2*cfg.K+int(posBits) > 64 {
		return nil, fmt.Errorf("core: k=%d with %d-base partition does not fit the packed build key", cfg.K, part.Len())
	}

	// Pack (k-mer, position) pairs and sort once: lexicographic k-mer
	// order, then position order within a k-mer.
	keys := make([]uint64, kmerStarts(part, cfg))
	for x := range keys {
		keys[x] = uint64(part.Kmer(x, cfg.K))<<posBits | uint64(x)
	}
	slices.Sort(keys)
	positions := make([]int32, len(keys))
	posMask := uint64(1)<<posBits - 1
	for i, key := range keys {
		positions[i] = int32(key & posMask)
	}
	return positions, nil
}

// kmerStarts is the number of k-mers in the partition.
func kmerStarts(part *dna.PackedSeq, cfg Config) int {
	return max(part.Len()-cfg.K+1, 0)
}

// countRuns checks one partition's positions as untrusted input and
// counts its distinct k-mers into perPrefix (indexed by m-mer prefix),
// returning their number. The positions must be strictly increasing in
// (k-mer, position) order and number one per k-mer start, which makes
// them a permutation of the starts and the only order the sort yields.
// The k-mers are read from the packed partition (1 MB at 4 Mbases), so
// the random reads the sorted order makes stay in cache.
func (g *refFilter) countRuns(positions []int32, part *dna.PackedSeq, perPrefix []int32) (int, error) {
	n := kmerStarts(part, g.cfg)
	if len(positions) != n {
		return 0, fmt.Errorf("%d positions for %d k-mer starts", len(positions), n)
	}
	distinct := 0
	var prev dna.Kmer
	for i, x := range positions {
		if x < 0 || int(x) >= n {
			return 0, fmt.Errorf("position %d (entry %d) out of range [0, %d)", x, i, n)
		}
		kmer := part.Kmer(int(x), g.cfg.K)
		switch {
		case i == 0 || kmer > prev:
			distinct++
			perPrefix[uint64(kmer)>>g.suffixBits]++
		case kmer < prev || x <= positions[i-1]:
			return 0, fmt.Errorf("position %d (entry %d) breaks (k-mer, position) order after %d", x, i, positions[i-1])
		}
		prev = kmer
	}
	return distinct, nil
}

// newRefFilter derives the reference-wide filter from every partition's
// k-mer occurrence positions in (k-mer, position) order: the single
// constructor behind BuildFilter, New and LoadIndex. The first pass
// checks each partition's positions and counts its rows per m-mer prefix
// (partitions in parallel); the mini index is the running sum of those
// counts. The second pass fills the rows and lays out the positions in
// parallel over prefix ranges, which own disjoint stretches of both
// arrays (fillPrefixes). Every pass reads a partition's k-mers in its own
// sorted order, so the output does not depend on the worker count.
func newRefFilter(cfg Config, parts []*dna.PackedSeq, positions [][]int32) (*refFilter, error) {
	g := &refFilter{cfg: cfg, distinct: make([]int, len(parts))}
	g.initDerived()
	total := 0
	for _, pos := range positions {
		total += len(pos)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d k-mer positions overflow the int32 row index", total)
	}
	prefixes := dna.NumKmers(cfg.M)
	workers := min(runtime.GOMAXPROCS(0), maxBuildWorkers)

	counts := make([][]int32, min(workers, len(parts)))
	errs := make([]error, len(parts))
	var next atomic.Int64
	parallel(len(counts), func(w int) {
		counts[w] = make([]int32, prefixes)
		for i := int(next.Add(1)) - 1; i < len(parts); i = int(next.Add(1)) - 1 {
			g.distinct[i], errs[i] = g.countRuns(positions[i], parts[i], counts[w])
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
	}
	g.mini = make([]int32, prefixes+1)
	for x := range prefixes {
		sum := g.mini[x]
		for _, c := range counts {
			sum += c[x]
		}
		g.mini[x+1] = sum
	}
	counts = nil

	rows := int(g.mini[prefixes])
	g.rows = make([]tagRow, rows+1)
	g.rows[rows] = tagRow{pos: int32(total), part: -1}
	if cfg.Stride+cfg.Groups > 64 {
		g.groups = make([]uint64, rows)
	}
	if len(parts) == 1 {
		g.positions = positions[0]
	} else {
		g.positions = make([]int32, total)
	}
	// Prefix ranges of about equal row counts, one per worker.
	bounds := []int{0}
	for w := 1; w < workers; w++ {
		target := int32(rows * w / workers)
		bounds = append(bounds, sort.Search(prefixes, func(x int) bool { return g.mini[x] >= target }))
	}
	bounds = append(bounds, prefixes)
	parallel(workers, func(w int) { g.fillPrefixes(bounds[w], bounds[w+1], parts, positions) })
	return g, nil
}

// maxBuildWorkers caps newRefFilter's goroutines: each first-pass worker
// holds a 4^M-entry count array.
const maxBuildWorkers = 8

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// fillPrefixes fills the rows of m-mer prefixes [x0, x1) and lays out
// their positions. Each partition's positions with those prefixes are one
// stretch of its sorted positions; walking the partitions in order drops
// each run's row into its prefix range, so a range holds each partition's
// rows in k-mer order, partition after partition. A stable sort by tag
// orders it by (k-mer, partition), and a backward pass over the rows
// consumes every partition's stretch from its end in that row order.
func (g *refFilter) fillPrefixes(x0, x1 int, parts []*dna.PackedSeq, positions [][]int32) {
	lo, hi := make([]int32, len(parts)), make([]int32, len(parts))
	for p, part := range parts {
		lo[p], hi[p] = g.firstWithPrefix(part, positions[p], x0), g.firstWithPrefix(part, positions[p], x1)
	}
	rowAt := slices.Clone(g.mini[x0:x1])
	K, stride, groups := g.cfg.K, g.cfg.Stride, g.cfg.Groups
	for p, part := range parts {
		pos := positions[p][:hi[p]]
		start := lo[p]
		if start == hi[p] {
			continue
		}
		// Each position's k-mer is read once: the k-mer that ends a run
		// starts the next.
		kmer := part.Kmer(int(pos[start]), K)
		ind := SearchIndicator{}.addOccurrence(int(pos[start]), stride, groups)
		for i := start + 1; ; i++ {
			var next dna.Kmer
			if i < hi[p] {
				if next = part.Kmer(int(pos[i]), K); next == kmer {
					ind = ind.addOccurrence(int(pos[i]), stride, groups)
					continue
				}
			}
			x := int(uint64(kmer)>>g.suffixBits) - x0
			g.setRow(int(rowAt[x]), tagRow{tag: uint64(kmer) & g.suffixMask, pos: start, part: int32(p)}, ind)
			rowAt[x]++
			if i == hi[p] {
				break
			}
			kmer, ind, start = next, SearchIndicator{}.addOccurrence(int(pos[i]), stride, groups), i
		}
	}
	if len(parts) == 1 {
		return // the rows are in order and index the given positions
	}
	for x := x0; x < x1; x++ {
		if r0, r1 := g.mini[x], g.mini[x+1]; r1-r0 > 1 {
			g.sortRange(int(r0), int(r1))
		}
	}
	var end int32
	for _, h := range hi {
		end += h // positions of all prefixes below x1 precede this range's end
	}
	for r := int(g.mini[x1]) - 1; r >= int(g.mini[x0]); r-- {
		row := &g.rows[r]
		run := positions[row.part][row.pos:hi[row.part]]
		hi[row.part] = row.pos
		end -= int32(len(run))
		copy(g.positions[end:], run)
		row.pos = end
	}
}

// firstWithPrefix returns the index of the first of a partition's sorted
// positions whose k-mer has an m-mer prefix of at least x.
func (g *refFilter) firstWithPrefix(part *dna.PackedSeq, pos []int32, x int) int32 {
	return int32(sort.Search(len(pos), func(i int) bool {
		return int(uint64(part.Kmer(int(pos[i]), g.cfg.K))>>g.suffixBits) >= x
	}))
}

// setRow stores row r with its search indicator.
func (g *refFilter) setRow(r int, row tagRow, ind SearchIndicator) {
	row.ind = ind.StartMask | ind.GroupMask<<uint(g.cfg.Stride)
	if g.groups != nil {
		row.ind = ind.StartMask
		g.groups[r] = ind.GroupMask
	}
	g.rows[r] = row
}

// sortRange stably sorts rows [lo, hi) by tag, carrying the group masks.
// A prefix range holds a few rows per partition, so insertion sort is
// the common case; a long range (repeat-rich or hostile input) takes a
// stable O(n log n) sort instead.
func (g *refFilter) sortRange(lo, hi int) {
	rows := g.rows[lo:hi]
	byTag := func(a, b tagRow) int { return cmp.Compare(a.tag, b.tag) }
	switch {
	case len(rows) > 32 && g.groups == nil:
		slices.SortStableFunc(rows, byTag)
	case len(rows) > 32:
		type wideRow struct {
			tagRow
			group uint64
		}
		wide := make([]wideRow, len(rows))
		for i := range rows {
			wide[i] = wideRow{rows[i], g.groups[lo+i]}
		}
		slices.SortStableFunc(wide, func(a, b wideRow) int { return byTag(a.tagRow, b.tagRow) })
		for i, w := range wide {
			rows[i], g.groups[lo+i] = w.tagRow, w.group
		}
	default:
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j].tag < rows[j-1].tag; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
				if g.groups != nil {
					g.groups[lo+j], g.groups[lo+j-1] = g.groups[lo+j-1], g.groups[lo+j]
				}
			}
		}
	}
}

// partPositions regroups the positions by partition, each partition's in
// (k-mer, position) order: the order its sort produced and SaveIndex
// stores.
func (g *refFilter) partPositions() [][]int32 {
	parts := len(g.distinct)
	if parts == 1 {
		return [][]int32{g.positions}
	}
	counts := make([]int, parts)
	rows := g.rows[:len(g.rows)-1]
	for r, row := range rows {
		counts[row.part] += int(g.rows[r+1].pos - row.pos)
	}
	out := make([][]int32, parts)
	for p := range out {
		out[p] = make([]int32, 0, counts[p])
	}
	for r, row := range rows {
		out[row.part] = append(out[row.part], g.rowPositions(int32(r))...)
	}
	return out
}

// indicator decodes row r's search indicator.
func (g *refFilter) indicator(r int32) SearchIndicator {
	w := g.rows[r].ind
	if g.groups != nil {
		return SearchIndicator{StartMask: w, GroupMask: g.groups[r]}
	}
	return SearchIndicator{StartMask: w & g.startMask, GroupMask: w >> uint(g.cfg.Stride)}
}

// rowPositions returns row r's sorted partition-local positions.
func (g *refFilter) rowPositions(r int32) []int32 {
	return g.positions[g.rows[r].pos:g.rows[r+1].pos]
}

// bucket returns the mini-index range of kmer's m-mer prefix and the
// k-mer's tag.
func (g *refFilter) bucket(kmer dna.Kmer) (lo, hi int, tag uint64) {
	x := uint64(kmer) >> g.suffixBits
	return int(g.mini[x]), int(g.mini[x+1]), uint64(kmer) & g.suffixMask
}

// match returns the rows holding kmer — one per partition that contains
// it, in partition order — as the first row and a count, without charging
// any activity.
func (g *refFilter) match(kmer dna.Kmer) (first, n int) {
	lo, hi, tag := g.bucket(kmer)
	rows := g.rows
	l, h := lo, hi
	for l < h {
		mid := int(uint(l+h) >> 1)
		if rows[mid].tag < tag {
			l = mid + 1
		} else {
			h = mid
		}
	}
	end := l
	for end < hi && rows[end].tag == tag {
		end++
	}
	return l, end - l
}

// find looks kmer up in partition part's filter, charging st as that
// partition's hardware would: one mini-index read and one tag search
// whose range decoder enables the partition's rows of the k-mer's
// m-mer prefix. It returns the k-mer's row in the partition, or -1.
func (g *refFilter) find(st *FilterStats, kmer dna.Kmer, part int32) int32 {
	st.Lookups++
	st.MiniAccesses++
	st.TagSearches++
	lo, hi, tag := g.bucket(kmer)
	row := int32(-1)
	for r := lo; r < hi; r++ {
		if g.rows[r].part == part {
			st.TagRowsEnabled++
			if g.rows[r].tag == tag {
				row = int32(r)
			}
		}
	}
	if row >= 0 {
		st.Hits++
	}
	return row
}

// lookup is find plus the data-array read of a hit's search indicator.
func (g *refFilter) lookup(st *FilterStats, kmer dna.Kmer, part int32) int32 {
	r := g.find(st, kmer, part)
	if r >= 0 {
		st.DataAccesses++
	}
	return r
}

// rowIn returns kmer's row in partition part, or -1, without charging
// activity.
func (g *refFilter) rowIn(kmer dna.Kmer, part int32) int32 {
	first, n := g.match(kmer)
	for r := first; r < first+n; r++ {
		if g.rows[r].part == part {
			return int32(r)
		}
	}
	return -1
}

// view returns partition part's filter with fresh Stats.
func (g *refFilter) view(part int) *Filter {
	return &Filter{idx: g, part: int32(part)}
}

// Filter is the pre-seeding filter table of one reference partition: a
// mini index over m-mers, a tag array of (k-m)-mers, and a data array of
// search indicators (Fig 8). It is a view of the reference-wide refFilter
// restricted to the partition's rows; lookups through it charge exactly
// what the partition's own table would.
type Filter struct {
	idx  *refFilter
	part int32

	// Stats accumulates lookup activity; reset by the caller per batch.
	Stats FilterStats
}

// Clone returns a view sharing this one's index arrays (built offline,
// never written during lookups) with fresh Stats. Lookup and Positions on
// distinct clones are safe to run concurrently.
func (f *Filter) Clone() *Filter { return f.idx.view(int(f.part)) }

// DistinctKmers returns the number of distinct k-mers stored.
func (f *Filter) DistinctKmers() int { return f.idx.distinct[f.part] }

// Lookup reports whether kmer exists in the partition and returns its
// search indicator. It charges the mini-index access, the gated tag-array
// search, and (on a hit) the data-array access.
func (f *Filter) Lookup(kmer dna.Kmer) (SearchIndicator, bool) {
	r := f.idx.lookup(&f.Stats, kmer, f.part)
	if r < 0 {
		return SearchIndicator{}, false
	}
	return f.idx.indicator(r), true
}

// Positions returns the sorted occurrence positions of kmer without
// charging filter activity (the computing phase resolves positions inside
// the computing CAM, not the filter).
func (f *Filter) Positions(kmer dna.Kmer) []int32 {
	r := f.idx.rowIn(kmer, f.part)
	if r < 0 {
		return nil
	}
	return f.idx.rowPositions(r)
}

// Contains reports existence without returning the indicator (still
// charges the lookup: the hardware performs the same accesses).
func (f *Filter) Contains(kmer dna.Kmer) bool {
	return f.idx.find(&f.Stats, kmer, f.part) >= 0
}

// bitsFor returns the number of bits needed to represent values < n.
func bitsFor(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// searchAll searches every k-mer of kmers once across the reference and
// charges each partition in stage the search its own filter would make:
// the mini-index read, the tag search over its rows of the k-mer's
// prefix and, on a hit, the data-array read. first[i] and count[i]
// receive the rows holding kmers[i], one per partition holding it. The
// mini-index reads of the whole strand are issued before any tag range is
// scanned, so their cache misses overlap (fmindex.RankBatch does the same
// for Occ queries). The returned value is a checksum of the rows touched
// ahead of the scans, for the caller to keep so the loads stay live.
func (g *refFilter) searchAll(kmers []dna.Kmer, first, count []int32, stage []PartStats) (touched uint64) {
	n := int64(len(kmers))
	for pi := range stage {
		f := &stage[pi].Filter
		f.Lookups += n
		f.MiniAccesses += n
		f.TagSearches += n
	}
	for i, km := range kmers {
		x := uint64(km) >> g.suffixBits
		first[i], count[i] = g.mini[x], g.mini[x+1] // the range until the scan below
	}
	// Touch every range's first and last row before scanning any: these
	// independent loads overlap, and the scans below then mostly hit in
	// cache.
	for i := range kmers {
		touched += g.rows[first[i]].tag + g.rows[max(count[i]-1, first[i])].tag
	}
	for i, km := range kmers {
		lo, hi, tag := int(first[i]), int(count[i]), uint64(km)&g.suffixMask
		first[i], count[i] = int32(lo), 0
		for r := lo; r < hi; r++ {
			row := &g.rows[r]
			f := &stage[row.part].Filter
			f.TagRowsEnabled++
			if row.tag == tag {
				if count[i] == 0 {
					first[i] = int32(r)
				}
				count[i]++
				f.Hits++
				f.DataAccesses++
			}
		}
	}
	return touched
}

// chargeSearches charges each partition in stage one search of its filter
// for kmer, short of the data-array read a hit adds: the mini-index read
// and the tag search over the partition's rows of the k-mer's prefix.
func (g *refFilter) chargeSearches(stage []PartStats, kmer dna.Kmer) {
	for pi := range stage {
		f := &stage[pi].Filter
		f.Lookups++
		f.MiniAccesses++
		f.TagSearches++
	}
	lo, hi, _ := g.bucket(kmer)
	for _, row := range g.rows[lo:hi] {
		if int(row.part) < len(stage) {
			stage[row.part].Filter.TagRowsEnabled++
		}
	}
}
