// Package genax implements the GenAx baseline (§2.2 of the CASA paper,
// originally Fujiki et al., ISCA 2018): on-chip seed & position tables
// (12-mers) and a unidirectional RMEM search that strides by k, intersects
// position sets, and binary-searches the exact match end. The model
// reproduces GenAx's bottleneck as characterized by the CASA paper:
// "~4000 position intersections and >= 200 index fetches per read per
// segment", serialized within each of 128 seeding lanes.
package genax

import (
	"fmt"
	"slices"

	"casa/internal/dna"
	"casa/internal/dram"
	"casa/internal/energy"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Config sets GenAx's dimensions.
type Config struct {
	K              int     // seed table k-mer size (12)
	MinSMEM        int     // minimum reported SMEM length (19)
	Lanes          int     // parallel seeding lanes (128)
	PartitionBases int     // reference bases per on-chip segment (6 Mbases = GenAx's 1.5 MB)
	ClockHz        float64 // lane clock (matched to CASA's 2 GHz for fairness, §6)

	// FetchCycles is the dependent-access latency of one seed/position
	// table fetch within a lane. The binary RMEM search must know the
	// previous result before issuing the next fetch ("the binary search of
	// RMEM requires the hardware controller to know the next k-mer to
	// search", §2.2), so fetches serialize at the SRAM pipeline depth.
	FetchCycles int
	// LaneEfficiency is the fraction of lanes making progress per cycle.
	// The default of 1.0 follows the CASA paper's own evaluation
	// assumption ("assuming that GenAx can reach the 128 seeding lanes
	// parallelism", §6); lower it to model the SRAM bank conflicts §2.2
	// says "restrict the number of seeding lanes".
	LaneEfficiency float64
	// IntersectOpsPerCycle is the SIMD width of the position intersection
	// units: one SRAM line delivers several sorted positions per cycle.
	IntersectOpsPerCycle int
}

// DefaultConfig returns the paper's GenAx evaluation setup (68 MB SRAM,
// 128 seeding lanes, 12-mer seed & position tables).
func DefaultConfig() Config {
	return Config{
		K:                    12,
		MinSMEM:              19,
		Lanes:                128,
		PartitionBases:       6 << 20,
		ClockHz:              2e9,
		FetchCycles:          2,
		LaneEfficiency:       1.0,
		IntersectOpsPerCycle: 16,
	}
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
	switch {
	case c.K <= 0 || c.K > 15:
		return fmt.Errorf("genax: k=%d out of range (seed table is directly indexed by 4^k)", c.K)
	case c.MinSMEM < c.K:
		return fmt.Errorf("genax: MinSMEM=%d must be >= k=%d", c.MinSMEM, c.K)
	case c.Lanes <= 0:
		return fmt.Errorf("genax: lanes must be positive")
	case c.PartitionBases < c.K:
		return fmt.Errorf("genax: partition smaller than one k-mer")
	case c.ClockHz <= 0:
		return fmt.Errorf("genax: clock must be positive")
	case c.FetchCycles <= 0:
		return fmt.Errorf("genax: FetchCycles must be positive")
	case c.LaneEfficiency <= 0 || c.LaneEfficiency > 1:
		return fmt.Errorf("genax: LaneEfficiency must be in (0, 1]")
	case c.IntersectOpsPerCycle <= 0:
		return fmt.Errorf("genax: IntersectOpsPerCycle must be positive")
	}
	return nil
}

// Stats counts seeding-lane activity.
type Stats struct {
	Fetches         int64 // seed & position table fetches
	IntersectionOps int64 // per-element intersection operations
	Pivots          int64 // pivots processed
	RMEMs           int64 // right-maximal matches computed
	Reads           int64 // reads seeded (per strand)
}

func (s *Stats) add(o Stats) {
	s.Fetches += o.Fetches
	s.IntersectionOps += o.IntersectionOps
	s.Pivots += o.Pivots
	s.RMEMs += o.RMEMs
	s.Reads += o.Reads
}

// Tables is one reference segment's seed & position tables: the seed table
// is directly indexed by the packed k-mer and points into the sorted
// position table (Fig 3(b)).
type Tables struct {
	cfg       Config
	ref       dna.Sequence
	seed      []int32 // len 4^K+1: position-table range per k-mer
	positions []int32

	Stats Stats

	// OnFetch, when set, observes every seed-table fetch (the k-mer
	// looked up). GenCache's cache model hooks here to classify fetches
	// as cache hits or DRAM misses.
	OnFetch func(kmer dna.Kmer)
}

// BuildTables constructs the tables for one segment.
func BuildTables(ref dna.Sequence, cfg Config) (*Tables, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ref) > cfg.PartitionBases {
		return nil, fmt.Errorf("genax: segment of %d bases exceeds configured %d", len(ref), cfg.PartitionBases)
	}
	t := &Tables{cfg: cfg, ref: ref}
	numKmers := dna.NumKmers(cfg.K)
	counts := make([]int32, numKmers+1)
	n := len(ref) - cfg.K + 1
	kmers := make([]dna.Kmer, 0, max(n, 0))
	var v dna.Kmer
	mask := dna.Kmer(1)<<(2*uint(cfg.K)) - 1
	for i, b := range ref {
		v = (v<<2 | dna.Kmer(b)) & mask
		if i >= cfg.K-1 {
			kmers = append(kmers, v)
			counts[v+1]++
		}
	}
	t.seed = make([]int32, numKmers+1)
	for k := 1; k <= numKmers; k++ {
		t.seed[k] = t.seed[k-1] + counts[k]
	}
	t.positions = make([]int32, len(kmers))
	fill := slices.Clone(t.seed[:numKmers])
	for i, km := range kmers {
		t.positions[fill[km]] = int32(i)
		fill[km]++
	}
	return t, nil
}

// lookup returns the sorted positions of kmer, charging one table fetch.
func (t *Tables) lookup(kmer dna.Kmer) []int32 {
	t.Stats.Fetches++
	if t.OnFetch != nil {
		t.OnFetch(kmer)
	}
	return t.positions[t.seed[kmer]:t.seed[kmer+1]]
}

// Lookup exposes the seed & position table lookup for layered designs
// (GenCache's fast-seeding path reuses the same tables).
func (t *Tables) Lookup(kmer dna.Kmer) []int32 { return t.lookup(kmer) }

// Clone returns tables sharing this segment's seed & position arrays
// (never written after BuildTables) with fresh Stats, so clones can seed
// concurrently. The OnFetch hook is copied: callers installing one on a
// cloned table set must make it safe for concurrent use (or leave it nil,
// as the plain GenAx accelerator does).
func (t *Tables) Clone() *Tables {
	return &Tables{cfg: t.cfg, ref: t.ref, seed: t.seed, positions: t.positions, OnFetch: t.OnFetch}
}

// Ref returns the segment's reference sequence.
func (t *Tables) Ref() dna.Sequence { return t.ref }

// rmem computes the right-maximal match from pivot: the first k-mer's
// positions, then k-strided fetch-and-intersect until empty, then a
// binary stride reduction for the exact end (§2.2's description of the
// seed & position table algorithm).
func (t *Tables) rmem(read dna.Sequence, pivot int) (smem.Match, bool) {
	t.Stats.Pivots++
	if pivot+t.cfg.K > len(read) {
		return smem.Match{}, false
	}
	cur := t.lookup(dna.PackKmer(read, pivot, t.cfg.K))
	if len(cur) == 0 {
		return smem.Match{}, false
	}
	t.Stats.RMEMs++
	matched := t.cfg.K

	// Full k-strides: intersect H(cur)+matched with the next k-mer's hits.
	for pivot+matched+t.cfg.K <= len(read) {
		next := t.lookup(dna.PackKmer(read, pivot+matched, t.cfg.K))
		inter := intersectOffset(cur, next, int32(matched))
		t.Stats.IntersectionOps += int64(len(cur) + len(next))
		if len(inter) == 0 {
			break
		}
		cur, matched = inter, matched+t.cfg.K
	}

	// Binary stride reduction: probe descending power-of-two strides
	// (largest <= k-1, so every remainder 1..k-1 is reachable); each probe
	// fetches an overlapping k-mer ending at the trial extension and
	// intersects.
	trial := matched
	first := 1
	for first*2 <= t.cfg.K-1 {
		first *= 2
	}
	for stride := first; stride >= 1; stride /= 2 {
		ext := trial + stride
		if pivot+ext > len(read) {
			continue
		}
		// Overlapping k-mer covering the last k bases of the trial match.
		off := ext - t.cfg.K
		next := t.lookup(dna.PackKmer(read, pivot+off, t.cfg.K))
		inter := intersectOffset(cur, next, int32(off))
		t.Stats.IntersectionOps += int64(len(cur) + len(next))
		if len(inter) > 0 {
			cur, trial = inter, ext
		}
	}
	return smem.Match{Start: pivot, End: pivot + trial - 1, Hits: len(cur)}, true
}

// intersectOffset returns the elements p of a such that p+off is in b;
// both inputs are sorted, output stays sorted (one merge pass, the
// hardware's sorted-list intersection).
func intersectOffset(a, b []int32, off int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i]+off < b[j]:
			i++
		case a[i]+off > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// FindSMEMs runs the unidirectional search over every pivot, keeping the
// RMEMs with strictly increasing ends (the non-contained ones) of length
// >= minLen. GenAx has no pre-seeding filter: every pivot fetches.
func (t *Tables) FindSMEMs(read dna.Sequence, minLen int) []smem.Match {
	t.Stats.Reads++
	var out []smem.Match
	prevEnd := -1
	for pivot := 0; pivot+t.cfg.K <= len(read); pivot++ {
		m, ok := t.rmem(read, pivot)
		if !ok {
			continue
		}
		if m.End > prevEnd {
			out = append(out, m)
			prevEnd = m.End
		}
	}
	out = smem.FilterMinLen(out, minLen)
	smem.Sort(out)
	return out
}

// SRAMBytes returns the on-chip table capacity: 4^k seed pointers (4 B)
// plus one 4 B position per base.
func (c Config) SRAMBytes() int64 {
	return int64(dna.NumKmers(c.K))*4 + int64(c.PartitionBases)*4
}

// Accelerator is the GenAx performance model: segments processed in
// sequence, 128 lanes each owning one read at a time.
type Accelerator struct {
	cfg      Config
	segments []*Tables
}

// New splits ref into segments and builds their tables.
func New(ref dna.Sequence, cfg Config) (*Accelerator, error) {
	return NewWithOverlap(ref, cfg, 100)
}

// NewWithOverlap is New with an explicit segment overlap in bases.
func NewWithOverlap(ref dna.Sequence, cfg Config, overlap int) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("genax: empty reference")
	}
	if overlap < 0 || overlap >= cfg.PartitionBases {
		return nil, fmt.Errorf("genax: overlap %d out of range", overlap)
	}
	a := &Accelerator{cfg: cfg}
	step := cfg.PartitionBases - overlap
	for start := 0; ; start += step {
		end := min(start+cfg.PartitionBases, len(ref))
		t, err := BuildTables(ref[start:end], cfg)
		if err != nil {
			return nil, err
		}
		a.segments = append(a.segments, t)
		if end == len(ref) {
			break
		}
	}
	return a, nil
}

// Segments returns the number of reference segments.
func (a *Accelerator) Segments() int { return len(a.segments) }

// Clone returns an accelerator sharing this one's segment tables (their
// immutable seed & position arrays) with fresh activity counters, for
// lock-free per-worker batch seeding.
func (a *Accelerator) Clone() *Accelerator {
	c := &Accelerator{cfg: a.cfg}
	c.segments = make([]*Tables, len(a.segments))
	for i, t := range a.segments {
		c.segments[i] = t.Clone()
	}
	return c
}

// Result is the outcome of a GenAx seeding run.
type Result struct {
	Reads      [][]smem.Match // merged forward-strand SMEMs per read
	Rev        [][]smem.Match
	Stats      Stats
	Seconds    float64
	DRAM       *dram.Traffic
	Energy     energy.Report
	Throughput float64
	ReadsPerMJ float64
}

// Activity is the raw, additive outcome of seeding a batch of reads: the
// per-read SMEM results of both strands (already merged across segments)
// plus the lane-activity counters and read-stream bytes. Activities of
// disjoint sub-batches reduce (Reduce) to a Result identical to a
// sequential run over the concatenated batch.
type Activity struct {
	Reads     [][]smem.Match
	Rev       [][]smem.Match
	Stats     Stats
	ReadBytes int64
}

// SeedReads seeds every read (both strands) against every segment. It is
// exactly Reduce(Seed(reads)); use Seed and Reduce directly to split a
// batch across worker-owned Clones.
func (a *Accelerator) SeedReads(reads []dna.Sequence) *Result {
	return a.Reduce(a.Seed(reads))
}

// Seed seeds every read (both strands) against every segment and returns
// the raw activity. Seed mutates only this accelerator's segment
// counters: concurrent calls on distinct Clones are safe.
func (a *Accelerator) Seed(reads []dna.Sequence) *Activity {
	return a.SeedTrace(reads, nil, 0)
}

// SeedTrace is Seed with cycle-domain tracing: when tb is non-nil, every
// read gets per-segment spans "sNN" on the "seed" track, with read-local
// timestamps in serialized lane cycles (LaneCycles over the read's own
// activity delta: a lane owns one read at a time, so the per-read cycle
// count is exactly what a lane spends on it). Reads are keyed base+i so
// batch shards merge worker-count independently.
//
// Reads are mutually independent (the tables keep only additive
// counters), so sweeping read-outer here yields an Activity bit-identical
// to the segment-outer order a sequential hardware pass implies.
func (a *Accelerator) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) *Activity {
	act := &Activity{}
	var tracks []string
	if tb != nil {
		tracks = make([]string, len(a.segments))
		for si := range a.segments {
			tracks[si] = fmt.Sprintf("s%02d", si)
		}
	}
	befores := make([]Stats, len(a.segments))
	for si, seg := range a.segments {
		befores[si] = seg.Stats
	}
	nseg := int64(len(a.segments))
	for i, r := range reads {
		rc := r.ReverseComplement()
		var fwd, rev []smem.Match
		var cursor int64
		for si, seg := range a.segments {
			var before Stats
			if tb != nil {
				before = seg.Stats
			}
			fwd = append(fwd, seg.FindSMEMs(r, a.cfg.MinSMEM)...)
			rev = append(rev, seg.FindSMEMs(rc, a.cfg.MinSMEM)...)
			if tb != nil {
				cyc := LaneCycles(diff(seg.Stats, before), a.cfg)
				tb.Emit(base+i, "seed", tracks[si], cursor, cyc)
				cursor += cyc
			}
		}
		act.Reads = append(act.Reads, smem.AppendMerged(nil, fwd))
		act.Rev = append(act.Rev, smem.AppendMerged(nil, rev))
		act.ReadBytes += int64((len(r)+3)/4) * nseg
	}
	for si, seg := range a.segments {
		act.Stats.add(diff(seg.Stats, befores[si]))
	}
	return act
}

// Reduce folds the Activities of disjoint sub-batches (in input order)
// into one finalized Result; the lane timing and energy are modelled once
// over the summed counters, so the totals match a sequential run no
// matter how the batch was sharded.
func (a *Accelerator) Reduce(acts ...*Activity) *Result {
	res := &Result{DRAM: dram.NewTraffic(dram.GenAxConfig())}
	var readBytes int64
	for _, act := range acts {
		res.Reads = append(res.Reads, act.Reads...)
		res.Rev = append(res.Rev, act.Rev...)
		res.Stats.add(act.Stats)
		readBytes += act.ReadBytes
	}
	res.DRAM.Read(readBytes)

	// Timing: each lane serializes its read's dependent fetches (at the
	// SRAM pipeline latency) and intersection operations; the lanes run in
	// parallel, derated by bank conflicts.
	laneCycles := LaneCycles(res.Stats, a.cfg)
	effLanes := float64(a.cfg.Lanes) * a.cfg.LaneEfficiency
	res.Seconds = float64(laneCycles) / effLanes / a.cfg.ClockHz
	if d := res.DRAM.MinSeconds(); d > res.Seconds {
		res.Seconds = d
	}

	// Energy: the 68 MB SRAM's leakage plus per-fetch dynamic energy; a
	// 256-bit line covers 8 positions, so intersections charge per 8 ops.
	m := energy.NewMeter()
	sram := energy.SRAM256x256
	m.RegisterArrays("seed & position SRAM", sram, macros(a.cfg.SRAMBytes()*8, sram))
	m.Charge("seed & position SRAM", res.Stats.Fetches+(res.Stats.IntersectionOps+7)/8, sram.EnergyPJ)
	m.Register("seeding lanes", 2.0, energy.GenAxAreaMM2-sramAreaMM2(a.cfg, sram))
	m.ChargeJ("DDR4", res.DRAM.DynamicJ())
	m.Register("DDR4", res.DRAM.BackgroundW(), 0)
	m.Register("DRAM controller PHY", res.DRAM.Config().PHYW, 0)
	res.Energy = m.Report(res.Seconds)

	if n := len(res.Reads); res.Seconds > 0 {
		res.Throughput = float64(n) / res.Seconds
	}
	if j := res.Energy.TotalJ(); j > 0 {
		res.ReadsPerMJ = float64(len(res.Reads)) / (j * 1e3)
	}
	return res
}

// LaneCycles converts lane activity into serialized per-lane cycles: each
// dependent table fetch stalls for the SRAM pipeline depth, and
// intersections run at the SIMD width of the intersection units. This is
// the conversion the timing model applies to the batch totals; applied to
// one read's delta it gives the cycles a lane spends on that read.
func LaneCycles(s Stats, cfg Config) int64 {
	return s.Fetches*int64(cfg.FetchCycles) +
		(s.IntersectionOps+int64(cfg.IntersectOpsPerCycle)-1)/int64(cfg.IntersectOpsPerCycle)
}

func diff(after, before Stats) Stats {
	return Stats{
		Fetches:         after.Fetches - before.Fetches,
		IntersectionOps: after.IntersectionOps - before.IntersectionOps,
		Pivots:          after.Pivots - before.Pivots,
		RMEMs:           after.RMEMs - before.RMEMs,
		Reads:           after.Reads - before.Reads,
	}
}

func macros(bitsTotal int64, model energy.ArrayModel) int {
	per := int64(model.Rows * model.Bits)
	return int((bitsTotal + per - 1) / per)
}

func sramAreaMM2(cfg Config, model energy.ArrayModel) float64 {
	return float64(macros(cfg.SRAMBytes()*8, model)) * model.AreaUM2 / 1e6
}
