package core

import (
	"fmt"
	"slices"

	"casa/internal/dna"
	"casa/internal/dram"
	"casa/internal/energy"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Accelerator is a full CASA instance: the reference split into partitions
// (each with its pre-seeding filter and computing-CAM image), the DRAM
// subsystem streaming read batches, and the power/area model. The model
// seeds reads against every partition in turn, exactly as the hardware
// timeshares its on-chip memory across the genome ("the same batch of
// reads should conduct such an expensive process repeatedly ... in the
// human genome due to the limited on-chip memory", §2.2). The host needs
// no such timesharing: it searches one reference-wide filter per pivot and
// charges each partition pass what its own filter would have cost.
type Accelerator struct {
	cfg     Config
	overlap int
	ref     dna.Sequence // the whole reference; partitions are windows of it
	idx     *refFilter   // the partitions' filters, merged
	parts   []*Partition
	starts  []int // global offset of each partition

	scr accScratch
}

// accScratch holds the accelerator's reusable per-read buffers: the
// reverse complement, the per-strand k-mers, reference-wide lookups and
// candidate accumulators, the per-partition filter results and stage
// deltas, and the merge destination. Together with the per-partition
// scratch this makes the steady-state per-read sweep allocation-free;
// Clone hands each worker an accelerator with empty scratch of its own,
// and nothing scratch-backed survives past the next read (retained
// results are exact-size copies).
type accScratch struct {
	rc      dna.Sequence
	kmers   [2][]dna.Kmer
	first   []int32 // per pivot: first row holding the k-mer
	count   []int32 // per pivot: partitions holding the k-mer
	rows    []int32 // per pivot: the k-mer's row in the partition computing
	anchors []int
	hit     []bool // per partition: the strand has a filter hit there
	delta   [2][]PartStats
	strand  [2][]smem.Match
	merged  []smem.Match
	touched uint64 // refFilter.searchAll's prefetch checksum
}

// DefaultPartitionOverlap is the number of bases adjacent partitions
// share so that no exact match of up to that length is lost at a cut.
// Matches the 101 bp read length of the evaluation datasets.
const DefaultPartitionOverlap = 100

// New splits ref into partitions of cfg.PartitionBases (overlapping by
// DefaultPartitionOverlap) and builds each partition's filter.
func New(ref dna.Sequence, cfg Config) (*Accelerator, error) {
	return NewWithOverlap(ref, cfg, DefaultPartitionOverlap)
}

// NewWithOverlap is New with an explicit partition overlap.
func NewWithOverlap(ref dna.Sequence, cfg Config, overlap int) (*Accelerator, error) {
	if err := checkLayout(cfg, overlap); err != nil {
		return nil, err
	}
	if err := checkMiniIndex(cfg, storedPositions(len(ref), cfg, overlap)); err != nil {
		return nil, err
	}
	return partitioned(ref, cfg, overlap, func(_ int, part *dna.PackedSeq) ([]int32, error) {
		return sortPositions(part, cfg)
	})
}

// checkLayout validates a configuration and partition overlap.
func checkLayout(cfg Config, overlap int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if overlap < 0 || overlap >= cfg.PartitionBases {
		return fmt.Errorf("core: overlap %d out of range [0, %d)", overlap, cfg.PartitionBases)
	}
	return nil
}

// spans returns the partition windows of a refLen-base reference: windows
// of cfg.PartitionBases bases, adjacent windows sharing overlap bases.
func spans(refLen int, cfg Config, overlap int) (starts, ends []int) {
	step := cfg.PartitionBases - overlap
	for start := 0; ; start += step {
		end := min(start+cfg.PartitionBases, refLen)
		starts, ends = append(starts, start), append(ends, end)
		if end == refLen {
			return starts, ends
		}
	}
}

// storedPositions is the number of k-mer positions an index of a
// refLen-base reference stores: one per k-mer start of each partition.
func storedPositions(refLen int, cfg Config, overlap int) int {
	starts, ends := spans(refLen, cfg, overlap)
	n := 0
	for i := range starts {
		n += max(ends[i]-starts[i]-cfg.K+1, 0)
	}
	return n
}

// partitioned runs the partition-span loop that building and loading
// share: positions supplies window i's k-mer positions in (k-mer,
// position) order from its packed image, and the windows' filters are
// merged into the reference-wide one.
func partitioned(ref dna.Sequence, cfg Config, overlap int, positions func(i int, part *dna.PackedSeq) ([]int32, error)) (*Accelerator, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	a := &Accelerator{cfg: cfg, overlap: overlap, ref: ref}
	starts, ends := spans(len(ref), cfg, overlap)
	packed := make([]*dna.PackedSeq, len(starts))
	pos := make([][]int32, len(starts))
	for i := range starts {
		packed[i] = dna.Pack(ref[starts[i]:ends[i]])
		var err error
		if pos[i], err = positions(i, packed[i]); err != nil {
			return nil, err
		}
	}
	var err error
	if a.idx, err = newRefFilter(cfg, packed, pos); err != nil {
		return nil, err
	}
	for i := range starts {
		a.parts = append(a.parts, &Partition{cfg: cfg, ref: ref[starts[i]:ends[i]], filter: a.idx.view(i)})
	}
	a.starts = starts
	return a, nil
}

// Clone returns an accelerator sharing this one's immutable index state
// (reference slices, filter arrays) but with fresh activity counters.
// Clones are the unit of parallelism for batch seeding: each worker owns
// one clone, so the hot path needs no locking, and their Activities
// reduce to totals bit-identical to a sequential run. Cloning is
// O(partitions), not O(reference): no index data is copied.
func (a *Accelerator) Clone() *Accelerator {
	c := &Accelerator{cfg: a.cfg, overlap: a.overlap, ref: a.ref, idx: a.idx, starts: a.starts}
	c.parts = make([]*Partition, len(a.parts))
	for i, p := range a.parts {
		c.parts[i] = p.Clone()
	}
	return c
}

// Partitions returns the number of reference partitions.
func (a *Accelerator) Partitions() int { return len(a.parts) }

// Partition returns partition i for inspection.
func (a *Accelerator) Partition(i int) *Partition { return a.parts[i] }

// Config returns the accelerator configuration.
func (a *Accelerator) Config() Config { return a.cfg }

// ReadResult holds the seeding output for one read: the merged SMEM sets
// for the forward sequence and its reverse complement.
type ReadResult struct {
	Forward []smem.Match
	Reverse []smem.Match
}

// Result is the outcome of seeding a read batch.
type Result struct {
	Reads []ReadResult

	Stats   PartStats     // aggregated activity over all partitions
	Seconds float64       // modelled seeding time
	Cycles  int64         // modelled controller cycles (sum over partitions)
	DRAM    *dram.Traffic // read-streaming traffic
	Energy  energy.Report // per-component energy/power/area
}

// Throughput returns reads per second.
func (r *Result) Throughput() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(len(r.Reads)) / r.Seconds
}

// ReadsPerMJ returns the paper's energy-efficiency metric (Fig 13b).
func (r *Result) ReadsPerMJ() float64 {
	j := r.Energy.TotalJ()
	if j <= 0 {
		return 0
	}
	return float64(len(r.Reads)) / (j * 1e3)
}

// Activity is the raw, additive outcome of seeding a batch of reads: the
// per-read SMEM results plus the per-partition, per-stage activity deltas
// and the DRAM read-stream bytes. Every counter is a per-read sum, so the
// Activities of disjoint sub-batches reduce (Reduce) to a Result whose
// simulated cycles, stats and energy are bit-identical to one sequential
// run over the concatenated batch — the invariant the parallel batch
// runner (internal/batch) relies on. The cycle conversion (stageCycles)
// applies ceiling divisions per partition pass, so it must run on the
// summed deltas, never per sub-batch; Activity keeps the deltas raw for
// exactly that reason.
type Activity struct {
	Reads     []ReadResult
	Stage1    []PartStats // per-partition exact-match-stage deltas
	Stage2    []PartStats // per-partition SMEM-stage deltas
	ReadBytes int64       // read-stream bytes fetched from DRAM
}

// SeedReads runs the full seeding flow for a batch of reads and returns
// the finalized Result. It is exactly Reduce(Seed(reads)): use Seed and
// Reduce directly to split a batch across worker-owned Clones (see
// internal/batch) without perturbing the simulated totals.
func (a *Accelerator) SeedReads(reads []dna.Sequence) *Result {
	return a.Reduce(a.Seed(reads))
}

// Seed runs the paper's two-stage seeding flow (§4.3) for a batch of
// reads and returns the raw activity:
//
//  1. Exact-match stage: every partition is swept with the cheap
//     anchor-based ExactCheck; a strand that matches exactly retires at
//     its first matching partition (its single SMEM is the whole read),
//     so it never costs another partition pass.
//  2. SMEM stage: the remaining strands run Algorithm 1 against every
//     partition, with per-partition SMEM sets merged per strand.
//
// A read streams from DRAM for a partition pass while at least one of its
// strands is still live. Seed mutates only this accelerator's partition
// counters: concurrent calls on distinct Clones are safe.
func (a *Accelerator) Seed(reads []dna.Sequence) *Activity {
	return a.SeedTrace(reads, nil, 0)
}

// SeedTrace is Seed with cycle-domain tracing: when tb is non-nil, every
// read gets a two-level span timeline — one span per stage on the "exact"
// and "smem" tracks, plus per-partition sub-spans on the "pNN" tracks —
// with read-local timestamps in modelled controller cycles. Reads are
// keyed base+i, so batch shards pass their shard offset and the merged
// trace is worker-count independent.
//
// Per-read cycles apply stageCycles to the read's own partition deltas;
// because the conversion takes ceilings over banked lanes, per-read cycles
// are an attribution of the batch total, not an exact decomposition (the
// Result's Cycles still come from Reduce over the summed deltas).
//
// Reads are mutually independent (exact-match retirement only couples a
// read's own two strands), so processing read-outer here yields an
// Activity bit-identical to a partition-outer sweep.
func (a *Accelerator) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) *Activity {
	act := &Activity{
		Reads:  make([]ReadResult, len(reads)),
		Stage1: make([]PartStats, len(a.parts)),
		Stage2: make([]PartStats, len(a.parts)),
	}

	var tracks []string
	if tb != nil {
		tracks = make([]string, len(a.parts))
		for pi := range a.parts {
			tracks[pi] = fmt.Sprintf("p%02d", pi)
		}
	}

	for i, r := range reads {
		a.seedStrands(r, act, tb, tracks, base+i)
		a.scr.merged = smem.AppendMerged(a.scr.merged[:0], a.scr.strand[0])
		fwd := smem.Retain(a.scr.merged)
		a.scr.merged = smem.AppendMerged(a.scr.merged[:0], a.scr.strand[1])
		act.Reads[i] = ReadResult{Forward: fwd, Reverse: smem.Retain(a.scr.merged)}
	}
	for pi, p := range a.parts {
		p.Stats.add(act.Stage1[pi])
		p.Stats.add(act.Stage2[pi])
	}
	return act
}

// seedStrands runs the two-stage partition sweep for one read's strands
// (strand 0 = forward, strand 1 = reverse complement), leaving the
// unmerged per-strand candidate sets in a.scr.strand — valid until the
// next call. act, when non-nil, accumulates the per-partition stage deltas
// and DRAM bytes; tb, when non-nil, receives the per-read cycle spans
// keyed readKey.
//
// The sweep searches the reference-wide filter once per k-mer instead of
// once per partition and runs the computing phase only in partitions
// holding some of the strand's k-mers; every other partition is charged
// in bulk what its own filter pass would have cost. The per-partition
// deltas are the ones a partition-by-partition sweep produces.
func (a *Accelerator) seedStrands(read dna.Sequence, act *Activity, tb *trace.Buffer, tracks []string, readKey int) {
	a.scr.rc = read.AppendReverseComplement(a.scr.rc[:0])
	seqs := [2]dna.Sequence{read, a.scr.rc}
	for s := range seqs {
		a.scr.kmers[s] = rollingKmers(a.scr.kmers[s], seqs[s], a.cfg.K)
		a.scr.delta[s] = growN(a.scr.delta[s], len(a.parts))
		clear(a.scr.delta[s])
	}
	stage1, stage2 := a.scr.delta[0], a.scr.delta[1]
	strand := [2][]smem.Match{a.scr.strand[0][:0], a.scr.strand[1][:0]}

	passes, retired := len(a.parts), false
	if a.cfg.ExactMatchPrepass {
		passes, retired = a.exactStage(seqs, stage1, &strand)
	}
	if !retired {
		for s := range seqs {
			strand[s] = a.smemStage(seqs[s], a.scr.kmers[s], stage2, strand[s])
		}
	}
	a.scr.strand = strand

	if act != nil {
		// A read streams from DRAM once per partition pass that has a
		// live strand; with the prepass on, the pass's exact check and
		// SMEM computation share the fetch.
		act.ReadBytes += int64(passes) * int64((len(read)+3)/4) // 2-bit packed
		for pi := range stage1 {
			act.Stage1[pi].add(stage1[pi])
			act.Stage2[pi].add(stage2[pi])
		}
	}
	if tb != nil {
		a.traceRead(tb, tracks, readKey, stage1, stage2)
	}
}

// exactStage is stage 1 for one read's strands: the exact-match sweep
// with retirement (§4.3), charging stage. The hardware scans the
// partitions in order, and a read that matches exactly in one retires
// BOTH strands (its exact placement is known, so the opposite strand
// reports no SMEMs — the aligner already has the position) and skips
// every later partition. Only a partition holding a strand's first anchor
// can match it, so the anchor is searched once across the reference and
// the full check runs only in those partitions, in sweep order; every
// other partition swept is charged the anchor search that rejects the
// strand. It returns the number of partition passes and whether the read
// retired.
func (a *Accelerator) exactStage(seqs [2]dna.Sequence, stage []PartStats, strand *[2][]smem.Match) (passes int, retired bool) {
	L := len(seqs[0])
	if L < a.cfg.MinSMEM {
		return len(a.parts), false
	}
	a.scr.anchors = anchorOffsets(a.scr.anchors, L-a.cfg.K, a.cfg.K)
	g := a.idx
	// Each strand's candidates are the rows holding its first anchor, in
	// partition order.
	var next, end [2]int
	for s := range seqs {
		first, n := g.match(a.scr.kmers[s][0])
		next[s], end[s] = first, first+n
	}
	// last[s] is the last partition that checks strand s.
	last := [2]int{len(a.parts) - 1, len(a.parts) - 1}
	for !retired && (next[0] < end[0] || next[1] < end[1]) {
		pi := len(a.parts)
		for s := range next {
			if next[s] < end[s] {
				pi = min(pi, int(g.rows[next[s]].part))
			}
		}
		for s := range seqs {
			if next[s] == end[s] || int(g.rows[next[s]].part) != pi {
				continue
			}
			row := next[s]
			next[s]++
			stage[pi].Filter.Hits++
			stage[pi].Filter.DataAccesses++
			if hits, ok := a.parts[pi].exactFrom(&stage[pi], seqs[s], a.scr.anchors, int32(row)); ok {
				strand[s] = append(strand[s], smem.Match{Start: 0, End: L - 1, Hits: hits})
				last = [2]int{pi, pi}
				if s == 0 {
					last[1] = pi - 1 // the reverse strand is not checked where the forward one matched
				}
				retired = true
				break
			}
		}
	}
	// Every partition swept gathered and searched each checked strand's
	// first anchor; the candidate checks above charged only what follows.
	for s := range seqs {
		swept := stage[:last[s]+1]
		for pi := range swept {
			swept[pi].ComputeCycles++
		}
		g.chargeSearches(swept, a.scr.kmers[s][0])
	}
	if retired {
		return last[0] + 1, true
	}
	return len(a.parts), false
}

// smemStage is stage 2 (Algorithm 1) for one live strand in every
// partition, charging stage. Every pivot is searched once across the
// reference; a partition holding none of the strand's k-mers discards the
// read after its filter pass (chargeNoHits), and the computing phase runs
// only where the strand has a hit. The naive no-table design has no
// filter to discard with, so it computes in every partition.
func (a *Accelerator) smemStage(seq dna.Sequence, kmers []dna.Kmer, stage []PartStats, dst []smem.Match) []smem.Match {
	for pi := range stage {
		stage[pi].ReadsSeeded++
	}
	n := len(kmers)
	if n == 0 {
		return dst
	}
	g := a.idx
	a.scr.first, a.scr.count = growN(a.scr.first, n), growN(a.scr.count, n)
	first, count := a.scr.first, a.scr.count
	a.scr.hit = growN(a.scr.hit, len(stage))
	hit := a.scr.hit
	if a.cfg.UseFilterTable {
		clear(hit)
		a.scr.touched += g.searchAll(kmers, first, count, stage)
		for i := range kmers {
			for _, row := range g.rows[first[i] : first[i]+count[i]] {
				hit[row.part] = true
			}
		}
	} else {
		for i, km := range kmers {
			f, c := g.match(km)
			first[i], count[i] = int32(f), int32(c)
		}
		for pi := range hit {
			hit[pi] = true
		}
	}

	a.scr.rows = growN(a.scr.rows, n)
	rows := a.scr.rows
	for pi := range stage {
		if !hit[pi] {
			chargeNoHits(&stage[pi], n)
			continue
		}
		for i := range kmers {
			rows[i] = -1
			for r := first[i]; r < first[i]+count[i]; r++ {
				if g.rows[r].part == int32(pi) {
					rows[i] = r
					break
				}
			}
		}
		dst = a.parts[pi].seedPivots(&stage[pi], dst, seq, kmers, rows, false)
	}
	return dst
}

// traceRead emits one read's cycle spans from its per-partition stage
// deltas: a span per partition pass on the "pNN" tracks, laid end to end
// in sweep order, and one per stage on the "exact" and "smem" tracks.
func (a *Accelerator) traceRead(tb *trace.Buffer, tracks []string, readKey int, stage1, stage2 []PartStats) {
	var cursor, stage1Total int64
	if a.cfg.ExactMatchPrepass {
		for pi := range stage1 {
			if cyc := stageCycles(stage1[pi], a.cfg); cyc > 0 {
				tb.Emit(readKey, tracks[pi], "exact", cursor, cyc)
				cursor += cyc
			}
		}
		stage1Total = cursor
		tb.Emit(readKey, "exact", "exact", 0, stage1Total)
	}
	for pi := range stage2 {
		if cyc := stageCycles(stage2[pi], a.cfg); cyc > 0 {
			tb.Emit(readKey, tracks[pi], "smem", cursor, cyc)
			cursor += cyc
		}
	}
	tb.Emit(readKey, "smem", "smem", stage1Total, cursor-stage1Total)
}

// SeedReadInto seeds one read on both strands into the caller-owned
// buffers, reusing their backing arrays (fwd and rev are expected to be
// resliced to length zero). Together with the per-partition scratch this
// is the allocation-free steady-state path the allocation regression suite
// pins. It keeps no activity: the partition counters accumulate only
// through Seed and SeedTrace.
func (a *Accelerator) SeedReadInto(fwd, rev []smem.Match, read dna.Sequence) ([]smem.Match, []smem.Match) {
	a.seedStrands(read, nil, nil, nil, 0)
	fwd = smem.AppendMerged(fwd, a.scr.strand[0])
	rev = smem.AppendMerged(rev, a.scr.strand[1])
	return fwd, rev
}

// Reduce folds the Activities of disjoint sub-batches (in input order)
// into one finalized Result: per-read results are concatenated, the
// per-partition deltas are summed before the cycle conversion, and time,
// DRAM traffic and energy are modelled once over the totals. Reducing N
// shard Activities yields the same Result as one sequential Seed over the
// whole batch, regardless of how the reads were sharded.
func (a *Accelerator) Reduce(acts ...*Activity) *Result {
	res := &Result{DRAM: dram.NewTraffic(dram.CASAConfig())}
	stage1 := make([]PartStats, len(a.parts))
	stage2 := make([]PartStats, len(a.parts))
	var readBytes int64
	for _, act := range acts {
		res.Reads = append(res.Reads, act.Reads...)
		for pi := range a.parts {
			stage1[pi].add(act.Stage1[pi])
			stage2[pi].add(act.Stage2[pi])
		}
		readBytes += act.ReadBytes
	}
	res.DRAM.Read(readBytes)

	var totalCycles int64
	for pi := range a.parts {
		// Per-partition phase overlap: the pre-seeding filter and the SMEM
		// computing unit pipeline across read batches, so a partition pass
		// costs the longer of the two phases (Fig 9).
		totalCycles += stageCycles(stage1[pi], a.cfg)
		totalCycles += stageCycles(stage2[pi], a.cfg)
		res.Stats.add(stage1[pi])
		res.Stats.add(stage2[pi])
	}

	res.Cycles = totalCycles
	res.Seconds = float64(totalCycles) / a.cfg.ClockHz
	if d := res.DRAM.MinSeconds(); d > res.Seconds {
		res.Seconds = d
	}
	res.Energy = a.energyReport(res)
	return res
}

// ActivityCycles converts one Activity's partition deltas into modelled
// controller cycles, the same per-partition conversion Reduce applies to
// the summed deltas. Because stageCycles takes ceilings over banked
// lanes, per-shard cycles summed over a batch can differ from the
// reduced Result.Cycles by rounding: ActivityCycles exists for live
// progress attribution (internal/progress), where per-shard monotone
// accumulation matters; the Result stays the quotable number. For a
// fixed shard grain the per-shard sum is deterministic at any worker
// count.
func (a *Accelerator) ActivityCycles(act *Activity) int64 {
	var total int64
	for pi := range a.parts {
		total += stageCycles(act.Stage1[pi], a.cfg)
		total += stageCycles(act.Stage2[pi], a.cfg)
	}
	return total
}

// stageCycles converts one partition pass's activity delta into cycles:
// the longer of the banked filter phase and the CAM-lane compute phase.
func stageCycles(delta PartStats, cfg Config) int64 {
	computeCycles := (delta.ComputeCycles + int64(cfg.ComputeCAMs) - 1) / int64(cfg.ComputeCAMs)
	filterCycles := (delta.Filter.Lookups + int64(cfg.FilterBanks) - 1) / int64(cfg.FilterBanks)
	return max(filterCycles, computeCycles)
}

// HitPositions resolves the global reference positions of an SMEM on a
// read: the occurrences of read[m.Start..m.End], collected across the
// partitions (duplicates from overlap regions removed), up to max
// positions (max <= 0 means all). This is the "location of hits" the
// hardware forwards to the SeedEx machines with each SMEM (§3).
func (a *Accelerator) HitPositions(read dna.Sequence, m smem.Match, max int) []int32 {
	if m.Start < 0 || m.End >= len(read) || m.Len() < a.cfg.K {
		return nil
	}
	kmer := dna.PackKmer(read, m.Start, a.cfg.K)
	// A capped result is short enough to dedupe by scanning it; only an
	// uncapped one needs a set.
	var seen map[int32]struct{}
	if max <= 0 {
		seen = make(map[int32]struct{})
	}
	var out []int32
	first, n := a.idx.match(kmer)
	for r := first; r < first+n; r++ {
		pi := a.idx.rows[r].part
		base := int32(a.starts[pi])
		for _, pos := range a.idx.rowPositions(int32(r)) {
			if a.parts[pi].lce(read, m.Start+a.cfg.K, int(pos)+a.cfg.K) < m.Len()-a.cfg.K {
				continue
			}
			g := base + pos
			if seen == nil {
				if slices.Contains(out, g) {
					continue
				}
			} else {
				if _, dup := seen[g]; dup {
					continue
				}
				seen[g] = struct{}{}
			}
			out = append(out, g)
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// energyReport converts accumulated activity into the Table 4 style
// power/area breakdown.
func (a *Accelerator) energyReport(res *Result) energy.Report {
	m := energy.NewMeter()
	cfg := a.cfg

	// Macro counts from the configured capacities (bits / macro bits).
	miniBits := int64(dna.NumKmers(cfg.M)) * 48
	tagBits := int64(cfg.PartitionBases) * 18
	dataBits := int64(cfg.PartitionBases) * int64(cfg.IndicatorBits())
	camBits := cfg.ComputeCAMBytes() * 8

	mini, tag, data, cam := energy.SRAM256x24, energy.BCAM256x72, energy.SRAM256x60, energy.BCAM256x80
	m.RegisterArrays("pre-seeding filter: mini index", mini, macros(miniBits, mini))
	m.RegisterArrays("pre-seeding filter: tag array", tag, macros(tagBits, tag))
	m.RegisterArrays("pre-seeding filter: data array", data, macros(dataBits, data))
	m.RegisterArrays("computing CAMs", cam, macros(camBits, cam))

	// Controllers: synthesized blocks; area and average active power come
	// from the paper's Design Compiler results (Table 4) since we cannot
	// synthesize here. Modelled as constant power while seeding runs.
	m.Register("pre-seeding controller", 4.102, 13.764)
	m.Register("computing controllers", 0.354, 4.049)

	st := res.Stats
	// Mini index: one 48-bit read touches two 24-bit banks.
	m.Charge("pre-seeding filter: mini index", st.Filter.MiniAccesses*2, mini.EnergyPJ)
	// Tag array: four 18-bit 9-mers share a 72-bit word, so four enabled
	// tag entries cost one physical row; per-row energy is E/256.
	m.Charge("pre-seeding filter: tag array", (st.Filter.TagRowsEnabled+3)/4, tag.EnergyPJ/256)
	m.Charge("pre-seeding filter: data array", st.Filter.DataAccesses, data.EnergyPJ)
	m.Charge("computing CAMs", st.CAMRowsEnabled, cam.EnergyPJ/256)

	// DRAM + PHY.
	m.ChargeJ("DDR4", res.DRAM.DynamicJ())
	m.Register("DDR4", res.DRAM.BackgroundW(), 0)
	m.Register("DRAM controller PHY", res.DRAM.Config().PHYW, 0)

	return m.Report(res.Seconds)
}

// macros returns the number of memory macros needed for the given bits.
func macros(bits int64, model energy.ArrayModel) int {
	per := int64(model.Rows * model.Bits)
	return int((bits + per - 1) / per)
}
