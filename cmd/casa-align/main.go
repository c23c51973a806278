// Command casa-align is a complete single- and paired-end short-read
// aligner built from this repository's components, mirroring the paper's
// §5 system: a registry engine seeds reads (SMEMs + hit positions), 5
// SeedEx machines extend the seeds with banded Smith-Waterman and verify
// with Myers edit machines, and alignments stream out as SAM. Seeding and
// extension both run on the worker pool (-workers: worker goroutines for
// seeding and extension); each extension worker owns its SeedEx machine,
// and SAM records are written in input order.
//
// Any engine registered in internal/engine can seed (-engine; "list"
// prints them). casa resolves both strands and hit positions natively;
// other engines seed the reverse complements in a second pass and fall
// back to a direct-scan positioner. -verify cross-checks the seeding
// engine's forward SMEMs against a second engine batch by batch.
//
// The run is interruptible: SIGINT stops seeding new shards, the current
// batch's completed prefix is extended and written, and the command
// flushes the SAM output plus partial metrics/trace before exiting with
// status 130. Live state is observable the same way as casa-smem: -http
// adds /progress and /events, -progress logs terminal snapshots,
// -stall-timeout arms a watchdog; diagnostics are run-scoped structured
// logs on stderr (-log-level, -log-format). Engine opening and telemetry
// go through internal/cli, as in casa-smem.
//
// Usage:
//
//	casa-align -ref ref.fa -reads reads.fq [-out out.sam]            # single-end
//	casa-align -ref ref.fa -reads r1.fq -reads2 r2.fq [-out out.sam] # paired-end
//	casa-align -ref ref.fa -index ref.casaidx -reads reads.fq        # prebuilt index
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"casa/internal/batch"
	"casa/internal/cli"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/pairing"
	"casa/internal/progress"
	"casa/internal/refidx"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	"casa/internal/smem"
)

// Proper-pair template length window (FR orientation).
const (
	minInsert = 50
	maxInsert = 2000
)

type aligner struct {
	ctx        context.Context
	eng        engine.Engine
	pos        engine.Positioner // nil = direct-scan fallback over the reference
	veng       engine.Engine     // nil = no -verify cross-check
	sx         []*seedex.Machine // one per extension worker
	ix         *refidx.Index
	maxHits    int
	pool       batch.Options
	tracker    *progress.Tracker
	writer     *sam.Writer
	aligned    int
	total      int
	mismatches int
}

// SIGINT cancels the run context: seeding drains its in-flight shards,
// the completed prefix is aligned and flushed, partial telemetry is
// published, and the command exits 130. A second SIGINT kills the
// process immediately.
func main() { cli.Main(run, os.Interrupt) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("casa-align", stdout, stderr)
	fs := c.Flags
	src := cli.Source{RefRequired: true}
	var tel cli.Telemetry
	fs.StringVar(&src.Ref, "ref", "", "reference FASTA (required)")
	fs.StringVar(&src.Index, "index", "", "prebuilt casa-idx/v1 index (casa-index output) over the same reference; any persisting engine")
	readsPath := fs.String("reads", "", "reads FASTQ (required; mate 1 in paired mode)")
	reads2 := fs.String("reads2", "", "mate-2 FASTQ (enables paired-end mode)")
	outPath := fs.String("out", "-", "SAM output path (- = stdout)")
	fs.StringVar(&src.Engine, "engine", "casa", "seeding engine (any registered name; \"list\" prints them)")
	fs.StringVar(&src.Verify, "verify", "", "cross-check the seeding engine's forward SMEMs against this engine (\"list\" prints the choices)")
	fs.IntVar(&src.Options.Partition, "partition", 4<<20, "partition size in bases (engines that partition the reference)")
	maxHits := fs.Int("max-hits", 4, "extension candidates per SMEM")
	batchSize := fs.Int("batch", 4096, "reads seeded per batch")
	workers := fs.Int("workers", 0, "worker goroutines for seeding and extension (0 = one per CPU)")
	tel.Register(fs)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if *readsPath == "" {
		return c.Usage()
	}
	if err := src.Resolve(fs); err != nil {
		return c.Fail(err)
	}
	r, err := c.Start(&tel, src.Engine)
	if err != nil {
		return c.Fail(err)
	}
	// The input streams in batches, so the read total is unknown upfront
	// (single-end) or learned at load (paired): the tracker starts at 0
	// and grows via AddTotal, and percent/ETA stay 0 until it is known.
	// The wall recorder gets one span per claimed shard across every
	// streamed batch (ReadBase keeps shard names globally unique); the
	// verify and reverse-complement passes share it.
	pool := batch.Options{Workers: *workers}
	o, err := r.Open(&src, &pool, 0)
	if err != nil {
		return r.Fail(err)
	}
	var veng engine.Engine
	if src.Verify != "" {
		if veng, err = engine.New(src.Verify, o.Ref.Flat(), engine.Options{}); err != nil {
			return r.Fail(err)
		}
	}
	sx := make([]*seedex.Machine, pool.WorkerCount())
	for w := range sx {
		if sx[w], err = seedex.New(o.Ref.Flat(), seedex.DefaultConfig()); err != nil {
			return r.Fail(err)
		}
	}
	out := stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return r.Fail(err)
		}
		defer f.Close()
		out = f
	}
	var refSeqs []sam.RefSeq
	for _, ch := range o.Ref.Chromosomes() {
		refSeqs = append(refSeqs, sam.RefSeq{Name: ch.Name, Length: ch.Length})
	}
	pos, _ := o.Engine.(engine.Positioner)
	a := &aligner{
		ctx: ctx, eng: o.Engine, pos: pos, veng: veng,
		sx: sx, ix: o.Ref, maxHits: *maxHits,
		pool: pool, tracker: r.Tracker,
		writer: sam.NewWriter(out, refSeqs, "casa-align"),
	}
	r.Log.Info("run starting", "workers", pool.WorkerCount(), "batch", *batchSize, "paired", *reads2 != "")

	if *reads2 == "" {
		err = a.runSingle(*readsPath, *batchSize)
	} else {
		err = a.runPaired(*readsPath, *reads2, *batchSize)
	}
	r.Tracker.Finish()
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return r.Fail(err)
	}
	if interrupted {
		r.Log.Warn("run interrupted; flushing the aligned prefix", "reads_done", a.total)
	}
	if err := a.writer.Flush(); err != nil {
		return r.Fail(err)
	}
	for _, m := range a.sx {
		m.PublishMetrics(r.Metrics)
	}
	r.Metrics.Counter("align/reads/total").Add(int64(a.total))
	r.Metrics.Counter("align/reads/aligned").Add(int64(a.aligned))
	r.Log.Info("alignment finished", "aligned", a.aligned, "reads", a.total, "interrupted", interrupted)
	if veng != nil {
		r.Log.Info("seed verification finished", "verify", src.Verify, "mismatches", a.mismatches)
	}
	return r.Close(ctx, interrupted, a.mismatches)
}

// seedBatch seeds one batch and returns per-read forward/reverse seed
// sets covering the completed prefix. Engines with native positioning
// (casa) resolve both strands in one pass; other engines seed the
// reverse complements in a second pass (outside the progress/trace
// accounting, which counts each read once). With -verify set, the
// forward SMEMs are cross-checked against the verify engine.
func (a *aligner) seedBatch(reads []dna.Sequence) ([]engine.Seeds, int, error) {
	res, done, err := batch.SeedEngineCtx(a.ctx, a.eng, reads, a.pool)
	var seeds []engine.Seeds
	if a.pos != nil {
		seeds = a.pos.ReadSeeds(res)
	} else {
		fwd := a.eng.SMEMs(res)
		seeds = make([]engine.Seeds, done)
		for i := range seeds {
			seeds[i].Forward = fwd[i]
		}
		if err == nil && done > 0 {
			rcs := make([]dna.Sequence, done)
			for i, r := range reads[:done] {
				rcs[i] = r.ReverseComplement()
			}
			rpool := a.pool
			rpool.Progress = nil
			rpool.Trace = nil
			var rres engine.Result
			var rdone int
			rres, rdone, err = batch.SeedEngineCtx(a.ctx, a.eng, rcs, rpool)
			for i, ms := range a.eng.SMEMs(rres)[:rdone] {
				seeds[i].Reverse = ms
			}
			if rdone < done {
				done = rdone
			}
		}
	}
	if a.veng != nil && err == nil {
		vpool := a.pool
		vpool.Progress = nil
		vpool.Trace = nil
		vres, vdone, verr := batch.SeedEngineCtx(a.ctx, a.veng, reads[:done], vpool)
		if verr == nil {
			for i, want := range a.veng.SMEMs(vres)[:vdone] {
				if !smem.SameIntervals(seeds[i].Forward, want) {
					a.mismatches++
				}
			}
		}
	}
	return seeds, done, err
}

// runSingle streams single-end reads in batches. On cancellation the
// current batch's completed read prefix is still extended and written,
// and the error is context.Canceled.
func (a *aligner) runSingle(path string, batchSize int) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()

	var recs []seqio.Record
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		reads := make([]dna.Sequence, len(recs))
		for i := range recs {
			reads[i] = recs[i].Seq
		}
		a.tracker.AddTotal(int64(len(reads)))
		// Later batches keep globally unique read indices in the trace.
		a.pool.ReadBase = a.total
		seeds, done, seedErr := a.seedBatch(reads)
		err := a.alignBatch(done, 1, func(sx *seedex.Machine, i int, out []sam.Record) []sam.Record {
			return append(out, a.recordSingle(recs[i], a.place(sx, recs[i].Seq, seeds[i])))
		})
		recs = recs[:0]
		if err != nil {
			return err
		}
		return seedErr
	}
	err = seqio.ForEachFastq(in, func(rec seqio.Record) error {
		recs = append(recs, rec)
		if len(recs) >= batchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// runPaired streams mate pairs in lockstep batches. On cancellation only
// fully-seeded pairs of the current batch are extended and written.
func (a *aligner) runPaired(path1, path2 string, batchSize int) error {
	r1, err := readAllFastq(path1)
	if err != nil {
		return err
	}
	r2, err := readAllFastq(path2)
	if err != nil {
		return err
	}
	if len(r1) != len(r2) {
		return fmt.Errorf("casa-align: mate files differ in length: %d vs %d", len(r1), len(r2))
	}
	a.tracker.AddTotal(int64(2 * len(r1)))
	for lo := 0; lo < len(r1); lo += batchSize {
		hi := min(lo+batchSize, len(r1))
		var reads []dna.Sequence
		for i := lo; i < hi; i++ {
			reads = append(reads, r1[i].Seq, r2[i].Seq)
		}
		a.pool.ReadBase = 2 * lo // mates interleave: global read index = 2*pair + mate
		seeds, done, seedErr := a.seedBatch(reads)
		err := a.alignBatch(done/2, 2, func(sx *seedex.Machine, k int, out []sam.Record) []sam.Record {
			i := lo + k
			p1 := a.place(sx, r1[i].Seq, seeds[2*k])
			p2 := a.place(sx, r2[i].Seq, seeds[2*k+1])
			p1, p2 = a.rescuePair(r1[i], r2[i], p1, p2)
			rec1, rec2 := a.recordPair(r1[i], r2[i], p1, p2)
			return append(out, rec1, rec2)
		})
		if err != nil {
			return err
		}
		if seedErr != nil {
			return seedErr
		}
	}
	return nil
}

// extendShardsPerWorker is the extension pool's load-balancing factor,
// as for seeding: each worker gets about this many shards of a batch.
const extendShardsPerWorker = 4

// alignBatch extends the seeded prefix of one batch on the worker pool
// and writes its SAM records in input order. The prefix is templates
// templates of unit reads each (1 single-end, 2 paired); shards hold
// whole templates, and fn places template t with the worker's own SeedEx
// machine, appending its records to out. The pool runs to completion
// even once the run is cancelled, so an interrupted batch's seeded prefix
// is still written in full. Each finished shard refreshes the stall
// watchdog, since the pool reports no seeding progress.
func (a *aligner) alignBatch(templates, unit int, fn func(sx *seedex.Machine, t int, out []sam.Record) []sam.Record) error {
	o := batch.Options{Workers: a.pool.Workers, Engine: seedex.Engine, Wall: a.pool.Wall, ReadBase: a.pool.ReadBase}
	perShard := o.WorkerCount() * extendShardsPerWorker
	o.Grain = unit * max(1, (templates+perShard-1)/perShard)
	shards := batch.Run(templates*unit, o, func(w, lo, hi int) []sam.Record {
		out := make([]sam.Record, 0, hi-lo)
		for t := lo / unit; t < hi/unit; t++ {
			out = fn(a.sx[w], t, out)
		}
		a.tracker.Touch()
		return out
	})
	for _, recs := range shards {
		for _, rec := range recs {
			if rec.Flag&sam.FlagUnmapped == 0 {
				a.aligned++
			}
			if err := a.writer.Write(rec); err != nil {
				return err
			}
		}
	}
	a.total += templates * unit
	return nil
}

// placement is one read's resolved alignment.
type placement struct {
	ok     bool
	chrom  refidx.Chromosome
	local  int
	rev    bool
	al     seedex.Alignment
	second int
}

// hitPositions resolves an SMEM's reference occurrences: natively for
// positioning engines, by direct scan otherwise.
func (a *aligner) hitPositions(strand dna.Sequence, m smem.Match) []int32 {
	if a.pos != nil {
		return a.pos.HitPositions(strand, m, a.maxHits)
	}
	return engine.Positions(a.ix.Flat(), strand, m, a.maxHits)
}

// place extends both strands of one read on sx and resolves the winner
// to a chromosome.
func (a *aligner) place(sx *seedex.Machine, read dna.Sequence, rs engine.Seeds) placement {
	toSeeds := func(strand dna.Sequence, smems []smem.Match) []seedex.Seed {
		var seeds []seedex.Seed
		for _, m := range smems {
			for _, pos := range a.hitPositions(strand, m) {
				seeds = append(seeds, seedex.Seed{QStart: m.Start, QEnd: m.End, RefPos: pos})
			}
		}
		return seeds
	}
	type cand struct {
		al  seedex.Alignment
		rev bool
	}
	var cands []cand
	if al, ok := sx.ExtendRead(read, toSeeds(read, rs.Forward)); ok {
		cands = append(cands, cand{al, false})
	}
	rc := read.ReverseComplement()
	if al, ok := sx.ExtendRead(rc, toSeeds(rc, rs.Reverse)); ok {
		cands = append(cands, cand{al, true})
	}
	if len(cands) == 0 {
		return placement{}
	}
	best := cands[0]
	second := best.al.SecondScore
	for _, c := range cands[1:] {
		if c.al.Score > best.al.Score {
			second = max(second, best.al.Score)
			best = c
		} else {
			second = max(second, c.al.Score)
		}
	}
	chrom, local, ok := a.ix.ResolveSpan(best.al.RefStart, best.al.Cigar.RefLen())
	if !ok {
		return placement{} // crosses a chromosome spacer: not a real locus
	}
	return placement{ok: true, chrom: chrom, local: local, rev: best.rev, al: best.al, second: second}
}

// recordSingle builds the SAM record for a single-end read.
func (a *aligner) recordSingle(rec seqio.Record, p placement) sam.Record {
	if !p.ok {
		return sam.Unmapped(rec.Name, rec.Seq, rec.Qual)
	}
	return a.baseRecord(rec, p, 0)
}

// baseRecord fills the mapped fields shared by single and paired records.
func (a *aligner) baseRecord(rec seqio.Record, p placement, extraFlags int) sam.Record {
	out := sam.Record{
		QName:        rec.Name,
		Flag:         extraFlags,
		RName:        p.chrom.Name,
		Pos:          p.local + 1,
		MapQ:         sam.MapQFromScores(p.al.Score, p.second, len(rec.Seq)),
		Cigar:        p.al.Cigar,
		EditDistance: p.al.EditDist,
		Score:        p.al.Score,
		HasTags:      true,
	}
	if p.rev {
		out.Flag |= sam.FlagReverse
		out.Seq = rec.Seq.ReverseComplement()
		out.Qual = reverseQual(rec.Qual)
	} else {
		out.Seq = rec.Seq
		out.Qual = rec.Qual
	}
	return out
}

// recordPair builds both mates' records with pair flags, mate fields and
// the proper-pair determination (same chromosome, FR orientation, insert
// within [minInsert, maxInsert]).
func (a *aligner) recordPair(rec1, rec2 seqio.Record, p1, p2 placement) (sam.Record, sam.Record) {
	build := func(rec seqio.Record, p placement, mateFlag int, mate placement) sam.Record {
		var out sam.Record
		if p.ok {
			out = a.baseRecord(rec, p, sam.FlagPaired|mateFlag)
		} else {
			out = sam.Unmapped(rec.Name, rec.Seq, rec.Qual)
			out.Flag |= sam.FlagPaired | mateFlag
		}
		if !mate.ok {
			out.Flag |= sam.FlagMateUnmapped
			return out
		}
		if mate.rev {
			out.Flag |= sam.FlagMateReverse
		}
		if p.ok && mate.chrom.Name == p.chrom.Name {
			out.RNext = "="
		} else {
			out.RNext = mate.chrom.Name
		}
		out.PNext = mate.local + 1
		return out
	}
	rec1Out := build(rec1, p1, sam.FlagFirstInPair, p2)
	rec2Out := build(rec2, p2, sam.FlagLastInPair, p1)

	if proper, tlen := properPair(p1, p2); proper {
		rec1Out.Flag |= sam.FlagProperPair
		rec2Out.Flag |= sam.FlagProperPair
		if p1.local <= p2.local {
			rec1Out.TLen, rec2Out.TLen = tlen, -tlen
		} else {
			rec1Out.TLen, rec2Out.TLen = -tlen, tlen
		}
	}
	return rec1Out, rec2Out
}

// properPair checks FR orientation on one chromosome with a plausible
// template length, returning the length.
func properPair(p1, p2 placement) (bool, int) {
	if !p1.ok || !p2.ok || p1.chrom.Name != p2.chrom.Name {
		return false, 0
	}
	opt := pairing.DefaultOptions()
	opt.MinInsert, opt.MaxInsert = minInsert, maxInsert
	return pairing.Proper(toMate(p1), toMate(p2), opt)
}

// toMate converts a placement into pairing's flat-coordinate view.
func toMate(p placement) pairing.Mate {
	return pairing.Mate{
		Mapped:   p.ok,
		Pos:      p.al.RefStart,
		RefLen:   p.al.Cigar.RefLen(),
		Reverse:  p.rev,
		Score:    p.al.Score,
		EditDist: p.al.EditDist,
		Cigar:    p.al.Cigar,
	}
}

// rescuePair attempts mate rescue when exactly one mate placed: the
// partner's position implies a window for the missing mate, searched with
// a banded fit (internal/pairing).
func (a *aligner) rescuePair(rec1, rec2 seqio.Record, p1, p2 placement) (placement, placement) {
	opt := pairing.DefaultOptions()
	opt.MinInsert, opt.MaxInsert = minInsert, maxInsert
	switch {
	case p1.ok && !p2.ok:
		if m, ok := pairing.Rescue(a.ix.Flat(), rec2.Seq, toMate(p1), opt); ok {
			p2 = a.fromMate(m)
		}
	case p2.ok && !p1.ok:
		if m, ok := pairing.Rescue(a.ix.Flat(), rec1.Seq, toMate(p2), opt); ok {
			p1 = a.fromMate(m)
		}
	}
	return p1, p2
}

// fromMate converts a rescued mate back into a placement (resolving the
// chromosome); rescues landing on a spacer are dropped.
func (a *aligner) fromMate(m pairing.Mate) placement {
	chrom, local, ok := a.ix.ResolveSpan(m.Pos, m.RefLen)
	if !ok {
		return placement{}
	}
	return placement{
		ok: true, chrom: chrom, local: local, rev: m.Reverse,
		al: seedex.Alignment{
			Score: m.Score, RefStart: m.Pos, Cigar: m.Cigar, EditDist: m.EditDist,
		},
	}
}

func reverseQual(q []byte) []byte {
	out := make([]byte, len(q))
	for i, c := range q {
		out[len(q)-1-i] = c
	}
	return out
}

func readAllFastq(path string) ([]seqio.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seqio.ReadFastq(f)
}
