// Package gencache implements the GenCache baseline (§2.2 of the CASA
// paper, originally Nag et al., MICRO 2019): GenAx's seed & position
// tables and SMEM algorithm, refined with (1) a fast-seeding path that
// bypasses SMEM computation for reads that match the reference with low
// error ("effectively bypassing SMEM seeding for these reads"), and
// (2) the index table held behind a multi-bank cache instead of fully
// on-chip, "triggering extensive DRAM fetches" on misses — the two
// properties the CASA paper contrasts against.
package gencache

import (
	"fmt"

	"casa/internal/dna"
	"casa/internal/dram"
	"casa/internal/energy"
	"casa/internal/genax"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Config sets the GenCache refinements on top of a GenAx configuration.
type Config struct {
	GenAx genax.Config

	// CacheBytes is the multi-bank cache in front of the DRAM-resident
	// seed & position tables.
	CacheBytes int64
	// LineBytes is the cache line / DRAM burst size.
	LineBytes int64
	// FastSeeding enables the exact-match bypass.
	FastSeeding bool
}

// DefaultConfig returns a GenCache setup at the paper's scale: GenAx's
// algorithm and table dimensions with a 32 MB cache.
func DefaultConfig() Config {
	return Config{
		GenAx:       genax.DefaultConfig(),
		CacheBytes:  32 << 20,
		LineBytes:   64,
		FastSeeding: true,
	}
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
	if err := c.GenAx.Validate(); err != nil {
		return err
	}
	if c.CacheBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("gencache: cache geometry must be positive")
	}
	return nil
}

// Stats counts GenCache-specific activity on top of the GenAx stats.
type Stats struct {
	CacheHits    int64
	CacheMisses  int64 // DRAM fetches
	FastSeeded   int64 // reads resolved by the fast-seeding bypass
	SlowSeeded   int64 // reads that went through full SMEM computation
	FastChecks   int64 // bypass attempts
	FastCheckOps int64 // anchor fetches spent on bypass attempts
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.FastSeeded += o.FastSeeded
	s.SlowSeeded += o.SlowSeeded
	s.FastChecks += o.FastChecks
	s.FastCheckOps += o.FastCheckOps
}

// Accelerator is the GenCache model over a partitioned reference.
//
// Stats accumulates this instance's Seed-side activity (bypass and
// seeding counters). Cache hit/miss classification is order-sensitive, so
// it is not counted during Seed: Reduce replays the recorded fetch
// streams through a cold cache and reports the counts on the Result.
type Accelerator struct {
	cfg        Config
	segments   []*genax.Tables
	cacheLines int
	rec        *[]dna.Kmer // fetch stream of the in-progress Seed pass

	Stats Stats
}

// New builds the tables (conceptually DRAM-resident) for every segment.
func New(ref dna.Sequence, cfg Config) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("gencache: empty reference")
	}
	a := &Accelerator{
		cfg:        cfg,
		cacheLines: int(cfg.CacheBytes / cfg.LineBytes),
	}
	const overlap = 100
	step := cfg.GenAx.PartitionBases - overlap
	for start := 0; ; start += step {
		end := min(start+cfg.GenAx.PartitionBases, len(ref))
		t, err := genax.BuildTables(ref[start:end], cfg.GenAx)
		if err != nil {
			return nil, err
		}
		t.OnFetch = a.recordFetch
		a.segments = append(a.segments, t)
		if end == len(ref) {
			break
		}
	}
	return a, nil
}

// Clone returns an accelerator sharing this one's segment tables (their
// immutable seed & position arrays) with fresh activity counters and its
// own fetch recorder, for lock-free per-worker batch seeding. The
// order-sensitive cache model needs no per-clone state: Reduce replays
// the recorded fetch streams sequentially.
func (a *Accelerator) Clone() *Accelerator {
	c := &Accelerator{cfg: a.cfg, cacheLines: a.cacheLines}
	c.segments = make([]*genax.Tables, len(a.segments))
	for i, t := range a.segments {
		ct := t.Clone()
		ct.OnFetch = c.recordFetch
		c.segments[i] = ct
	}
	return c
}

// Segments returns the segment count.
func (a *Accelerator) Segments() int { return len(a.segments) }

// recordFetch appends one seed-table fetch to the in-progress pass's
// stream, for the cache replay in Reduce.
func (a *Accelerator) recordFetch(kmer dna.Kmer) {
	if a.rec != nil {
		*a.rec = append(*a.rec, kmer)
	}
}

// Result is the outcome of a GenCache seeding run.
type Result struct {
	Reads      [][]smem.Match
	Rev        [][]smem.Match
	GenAx      genax.Stats
	Stats      Stats
	Seconds    float64
	DRAM       *dram.Traffic
	Energy     energy.Report
	Throughput float64
	ReadsPerMJ float64
}

// Activity is the raw outcome of seeding one shard of reads: per-read
// matches, additive counters, and the per-pass fetch streams the cache
// model needs. Activities from concurrent workers combine in Reduce.
type Activity struct {
	Reads [][]smem.Match
	Rev   [][]smem.Match
	Stats Stats       // bypass/seeding counters (cache fields stay zero)
	GenAx genax.Stats // fetch & intersection deltas for this shard

	// Fetches holds one seed-table fetch stream per sequential pass:
	// first the fast-seeding pass over each segment, then the SMEM pass
	// over each segment (2×Segments() entries). Reduce replays pass p of
	// every activity, in activity order, through a cold cache — which for
	// in-order shards of one read set reproduces the sequential stream
	// exactly.
	Fetches [][]dna.Kmer

	ReadCount int
	ReadBytes int64 // packed read bytes streamed per segment pass
}

// SeedReads runs the GenCache flow: fast-seeding bypass first (retiring
// exactly matching reads at their first matching segment), then the
// GenAx SMEM algorithm for the rest, with every table fetch classified
// through the cache. It is Reduce(Seed(reads)).
func (a *Accelerator) SeedReads(reads []dna.Sequence) *Result {
	return a.Reduce(a.Seed(reads))
}

// Seed runs the per-read portion of the GenCache flow for one shard of
// reads, recording the fetch streams instead of classifying them, so
// shards may run concurrently on Clones.
func (a *Accelerator) Seed(reads []dna.Sequence) *Activity {
	return a.SeedTrace(reads, nil, 0)
}

// SeedTrace is Seed with cycle-domain tracing: when tb is non-nil, every
// read gets one span on the "bypass" track (the fast-seeding attempts)
// and one on the "smem" track (the full SMEM computation), with
// read-local timestamps in serialized lane cycles (genax.LaneCycles over
// the read's own table activity in that pass). The cache-miss DRAM
// latency is order-sensitive and modelled over the replayed stream in
// Reduce, so it is not in per-read durations. Reads are keyed base+i so
// batch shards merge worker-count independently.
//
// Reads are mutually independent (bypass retirement only couples a
// read's own two strands), so processing read-outer here records the
// same per-(pass, segment) fetch streams — reads in order, forward then
// reverse within a read — and the same counters as a pass-outer sweep.
func (a *Accelerator) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) *Activity {
	act := &Activity{
		Fetches:   make([][]dna.Kmer, 2*len(a.segments)),
		ReadCount: len(reads),
	}
	statsBefore := a.Stats

	var genaxBefore genax.Stats
	for _, seg := range a.segments {
		genaxBefore.Fetches += seg.Stats.Fetches
		genaxBefore.IntersectionOps += seg.Stats.IntersectionOps
	}

	for i, r := range reads {
		// Strand 0 = forward, strand 1 = reverse complement.
		seqs := [2]dna.Sequence{r, r.ReverseComplement()}
		var retired [2]bool
		var strand [2][]smem.Match
		var bypassCyc, smemCyc int64

		// Fast-seeding bypass: a resolved read retires both strands at its
		// first matching segment and skips every later one.
		if a.cfg.FastSeeding {
			for si, seg := range a.segments {
				if retired[0] && retired[1] {
					break
				}
				a.rec = &act.Fetches[si]
				var before genax.Stats
				if tb != nil {
					before = seg.Stats
				}
				for s := 0; s < 2; s++ {
					if retired[s] || len(seqs[s]) < a.cfg.GenAx.MinSMEM {
						continue
					}
					if hits, ok := a.fastSeed(seg, seqs[s]); ok {
						retired[s] = true
						retired[s^1] = true
						strand[s] = []smem.Match{{Start: 0, End: len(seqs[s]) - 1, Hits: hits}}
					}
				}
				if tb != nil {
					bypassCyc += genax.LaneCycles(genax.Stats{
						Fetches:         seg.Stats.Fetches - before.Fetches,
						IntersectionOps: seg.Stats.IntersectionOps - before.IntersectionOps,
					}, a.cfg.GenAx)
				}
			}
			if tb != nil {
				tb.Emit(base+i, "bypass", "bypass", 0, bypassCyc)
			}
		}

		// Full SMEM computation for the remaining strands.
		for si, seg := range a.segments {
			if retired[0] && retired[1] {
				break
			}
			a.rec = &act.Fetches[len(a.segments)+si]
			var before genax.Stats
			if tb != nil {
				before = seg.Stats
			}
			for s := 0; s < 2; s++ {
				if !retired[s] {
					strand[s] = append(strand[s], seg.FindSMEMs(seqs[s], a.cfg.GenAx.MinSMEM)...)
				}
			}
			if tb != nil {
				smemCyc += genax.LaneCycles(genax.Stats{
					Fetches:         seg.Stats.Fetches - before.Fetches,
					IntersectionOps: seg.Stats.IntersectionOps - before.IntersectionOps,
				}, a.cfg.GenAx)
			}
		}
		tb.Emit(base+i, "smem", "smem", bypassCyc, smemCyc)
		for s := 0; s < 2; s++ {
			if !retired[s] {
				a.Stats.SlowSeeded++
			}
		}

		act.Reads = append(act.Reads, smem.AppendMerged(nil, strand[0]))
		act.Rev = append(act.Rev, smem.AppendMerged(nil, strand[1]))
		act.ReadBytes += int64((len(r) + 3) / 4)
	}
	a.rec = nil

	act.Stats = diffStats(a.Stats, statsBefore)
	for _, seg := range a.segments {
		act.GenAx.Fetches += seg.Stats.Fetches
		act.GenAx.IntersectionOps += seg.Stats.IntersectionOps
	}
	act.GenAx.Fetches -= genaxBefore.Fetches
	act.GenAx.IntersectionOps -= genaxBefore.IntersectionOps
	act.ReadBytes *= int64(len(a.segments))
	return act
}

// Reduce combines shard activities into the final model result. The
// order-sensitive cache is replayed here, sequentially and from cold:
// pass by pass, activities in argument order — identical to the
// single-threaded fetch stream when the activities cover in-order shards
// of one read set, so hit/miss counts never depend on worker count.
func (a *Accelerator) Reduce(acts ...*Activity) *Result {
	res := &Result{DRAM: dram.NewTraffic(dram.GenAxConfig())}
	var totalReads int
	var readBytes int64
	for _, act := range acts {
		res.Reads = append(res.Reads, act.Reads...)
		res.Rev = append(res.Rev, act.Rev...)
		res.Stats.add(act.Stats)
		res.GenAx.Fetches += act.GenAx.Fetches
		res.GenAx.IntersectionOps += act.GenAx.IntersectionOps
		totalReads += act.ReadCount
		readBytes += act.ReadBytes
	}
	cache := newLineCache(a.cacheLines)
	for p := 0; p < 2*len(a.segments); p++ {
		for _, act := range acts {
			if p >= len(act.Fetches) {
				continue
			}
			for _, kmer := range act.Fetches[p] {
				if cache.access(uint64(kmer)) {
					res.Stats.CacheHits++
				} else {
					res.Stats.CacheMisses++
				}
			}
		}
	}

	// DRAM: cache misses are random bursts against the DRAM-resident
	// tables; reads stream per segment pass (live strands only).
	res.DRAM.RandomAccesses += res.Stats.CacheMisses
	res.DRAM.BytesRead += res.Stats.CacheMisses * a.cfg.LineBytes
	res.DRAM.Read(readBytes)

	// Timing: GenAx's lane model for the on-chip work, plus the
	// latency-bound DRAM misses ("significantly diminishing the overall
	// SMEM seeding performance").
	g := a.cfg.GenAx
	laneCycles := genax.LaneCycles(res.GenAx, g)
	computeSeconds := float64(laneCycles) / (float64(g.Lanes) * g.LaneEfficiency) / g.ClockHz
	missSeconds := res.DRAM.Config().RandAccessSeconds(res.Stats.CacheMisses) / float64(g.Lanes)
	res.Seconds = computeSeconds + missSeconds
	if d := res.DRAM.MinSeconds(); d > res.Seconds {
		res.Seconds = d
	}

	// Energy: the small cache replaces GenAx's 68 MB SRAM; DRAM works
	// harder.
	m := energy.NewMeter()
	sram := energy.SRAM256x256
	cacheMacros := int((a.cfg.CacheBytes*8 + int64(sram.Rows*sram.Bits) - 1) / int64(sram.Rows*sram.Bits))
	m.RegisterArrays("multi-bank cache", sram, cacheMacros)
	m.Charge("multi-bank cache", res.Stats.CacheHits+res.Stats.CacheMisses, sram.EnergyPJ)
	m.Register("seeding lanes", 2.0, 40)
	m.ChargeJ("DDR4 (tables + reads)", res.DRAM.DynamicJ())
	m.Register("DDR4 (tables + reads)", res.DRAM.BackgroundW(), 0)
	m.Register("DRAM controller PHY", res.DRAM.Config().PHYW, 0)
	res.Energy = m.Report(res.Seconds)

	if res.Seconds > 0 {
		res.Throughput = float64(totalReads) / res.Seconds
	}
	if j := res.Energy.TotalJ(); j > 0 {
		res.ReadsPerMJ = float64(totalReads) / (j * 1e3)
	}
	return res
}

// fastSeed attempts the exact-match bypass for one strand against one
// segment: anchor k-mers fetched (through the cache), then candidate
// positions verified directly.
func (a *Accelerator) fastSeed(seg *genax.Tables, read dna.Sequence) (hits int, ok bool) {
	k := a.cfg.GenAx.K
	L := len(read)
	if L < k {
		return 0, false
	}
	a.Stats.FastChecks++
	a.Stats.FastCheckOps++
	first := seg.Lookup(dna.PackKmer(read, 0, k))
	if len(first) == 0 {
		return 0, false
	}
	ref := seg.Ref()
	for _, pos := range first {
		if int(pos)+L > len(ref) {
			continue
		}
		match := true
		for j := k; j < L; j++ {
			if ref[int(pos)+j] != read[j] {
				match = false
				break
			}
		}
		if match {
			hits++
		}
	}
	if hits > 0 {
		a.Stats.FastSeeded++
		return hits, true
	}
	return 0, false
}

func diffStats(after, before Stats) Stats {
	return Stats{
		CacheHits:    after.CacheHits - before.CacheHits,
		CacheMisses:  after.CacheMisses - before.CacheMisses,
		FastSeeded:   after.FastSeeded - before.FastSeeded,
		SlowSeeded:   after.SlowSeeded - before.SlowSeeded,
		FastChecks:   after.FastChecks - before.FastChecks,
		FastCheckOps: after.FastCheckOps - before.FastCheckOps,
	}
}

// lineCache is a direct-mapped cache model keyed by k-mer buckets — cheap
// and adequate for hit-rate estimation of a banked cache.
type lineCache struct {
	lines []uint64
	valid []bool
}

func newLineCache(lines int) *lineCache {
	if lines < 1 {
		lines = 1
	}
	return &lineCache{lines: make([]uint64, lines), valid: make([]bool, lines)}
}

// access returns true on hit, filling the line either way.
func (c *lineCache) access(key uint64) bool {
	idx := int(key % uint64(len(c.lines)))
	if c.valid[idx] && c.lines[idx] == key {
		return true
	}
	c.lines[idx] = key
	c.valid[idx] = true
	return false
}
