package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"time"

	"casa/internal/batch"
	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/refidx"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	"casa/internal/serve"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Replay sizes of a traced run.
const (
	layerReads    = 40_000 // reads replayed through the per-read layers
	offPathReads  = 10_000 // reads replayed through casa-align's tail off align-se
	rankQueries   = 1 << 21
	rankBatch     = 64
	serveRequests = 24 // single-client requests timed for serve.overhead_ms
	maxHits       = 4  // casa-align's -max-hits default
	minSMEM       = 19
)

// layerRun collects one traced run's per-layer values and records a wall
// span around every layer call, written out as a casa-walltrace/v1 file
// when the run ends.
type layerRun struct {
	vals map[string]float64
	wall *trace.WallTrace
}

// time runs fn as one span of layer and returns its seconds.
func (l *layerRun) time(layer, name string, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.wall.Record("perfbench", layer, name, start, d)
	return d.Seconds()
}

// tracedTool runs the workload's tool once more with its own wall-clock
// tracing on. It returns the run's wall time (serve: one closed-loop
// pass) and the pool's utilization in it: the busy time of the tool's own
// worker spans over workers x the post-setup window.
func (r *runner) tracedTool(ctx context.Context, m *e2e, setup float64) (wall, util float64, err error) {
	file := r.c.path(r.w.name + ".tooltrace.json")
	var t e2e
	if r.w.tool == "casa-serve" {
		r.runServeWorkload(ctx, &t, plan{setups: 1, fullRuns: 1, toolTrace: file})
		setup = 0 // the pass starts once the server is up
	} else {
		r.runCLIWorkload(ctx, &t, plan{fullRuns: 1, toolTrace: file})
	}
	m.attempted += t.attempted
	m.failed += t.failed
	m.errors = append(m.errors, t.errors...)
	if len(t.wall) == 0 {
		return 0, 0, fmt.Errorf("traced %s run failed: %v", r.w.tool, t.errors)
	}
	spans, dropped, err := trace.ParseWallFile(file)
	if err != nil {
		return 0, 0, fmt.Errorf("traced %s run: %w", r.w.tool, err)
	}
	if dropped > 0 {
		return 0, 0, fmt.Errorf("traced %s run dropped %d wall spans", r.w.tool, dropped)
	}
	// casa-serve files each run's worker spans under its own process,
	// with the worker label as the track.
	for i, sp := range spans {
		if _, ok := trace.ParseWallWorkerProc(sp.Track); ok {
			spans[i].Proc = sp.Track
		}
	}
	workers, _ := trace.WallWorkers(spans)
	var busy int64
	for _, w := range workers {
		busy += w.BusyUS
	}
	wall = median(t.wall)
	return wall, float64(busy) / 1e6 / (float64(r.procs) * (wall - setup)), nil
}

// layers measures the per-layer metrics of a traced run. m and e2eVals
// are this run's untraced measurement of the same workload.
func (r *runner) layers(ctx context.Context, m *e2e, e2eVals map[string]float64, v verdict) (map[string]float64, error) {
	l := &layerRun{vals: map[string]float64{}, wall: trace.NewWall(0)}
	wall, setup := e2eVals["wall_s"], e2eVals["setup_s"]
	if r.w.tool == "casa-serve" {
		setup = 0
	}
	tracedWall, util, err := r.tracedTool(ctx, m, setup)
	if err != nil {
		return nil, err
	}
	l.vals["tracing_overhead_s"] = tracedWall - wall
	l.vals["batch.pool_utilization"] = util

	reads := r.rs.seqs
	sample := reads[:min(len(reads), layerReads)]

	// Index decode of the workload's own index.
	var eng engine.Engine
	l.vals["idxio.load_s"] = l.time("idxio", "LoadIndex "+r.w.engine, func() {
		eng, _, err = loadIndex(r.c.indexPath(r.w.engine))
	})
	if err != nil {
		return nil, err
	}
	l.vals["idxio.bytes_per_base"] = r.c.perBase[r.w.engine]

	var ix *refidx.Index
	l.vals["refidx.load_s"] = l.time("refidx", "ReadFasta+Build", func() {
		ix, err = loadRef(r.c.refPath)
	})
	if err != nil {
		return nil, err
	}
	var parsed int
	l.vals["seqio.fastq_parse_s"] = l.time("seqio", "ForEachFastq", func() {
		parsed, err = countFastq(r.rs.path)
	})
	if err != nil {
		return nil, err
	}
	if parsed != len(reads) {
		return nil, fmt.Errorf("parsed %d reads from %s, wrote %d", parsed, r.rs.path, len(reads))
	}

	// The batch pool, on the workload's engine and full read set.
	pool := trace.NewWall(0)
	l.vals["batch.seed_s"] = l.time("batch", "SeedEngine "+r.w.engine, func() {
		batch.SeedEngine(eng, reads, batch.Options{Wall: pool})
	})
	workers, _ := trace.WallWorkers(pool.Spans())
	l.vals["batch.imbalance"] = trace.WallImbalance(workers)

	casa := eng
	if r.w.engine != "casa" {
		if casa, _, err = loadIndex(r.c.indexPath("casa")); err != nil {
			return nil, err
		}
	}
	if err := l.coreLayer(casa, sample); err != nil {
		return nil, err
	}
	if err := l.fmindexLayer(r.c.indexPath("fmindex"), sample, r.seed); err != nil {
		return nil, err
	}
	if err := l.shardLayer(r.c.indexPath("sharded:casa"), sample); err != nil {
		return nil, err
	}
	alignReads := sample
	if r.w.tool != "casa-align" {
		alignReads = reads[:min(len(reads), offPathReads)]
	}
	if err := l.alignLayers(casa, ix, alignReads, r.rs.names); err != nil {
		return nil, err
	}
	if r.w.tool == "casa-align" {
		l.vals["unattributed_s"] = unattributed(wall, setup, l.vals["seqio.fastq_parse_s"], l.vals["batch.seed_s"],
			l.vals["engine.hit_positions_s"], l.vals["seedex.extend_s"], l.vals["sam.write_s"])
	} else {
		l.vals["unattributed_s"] = unattributed(wall, setup, l.vals["seqio.fastq_parse_s"], l.vals["batch.seed_s"])
	}
	if l.vals["serve.overhead_ms"], err = l.serveLayer(ctx, eng, r.rs.reads[:min(len(reads), serveRequests*batchReads)]); err != nil {
		return nil, err
	}
	l.vals["smem_mismatch_reads"] = float64(v.mismatchReads)
	l.vals["error_share"] = m.errorShare()
	if err := trace.WriteWallFile(r.c.path(r.w.name+".layers.json"), l.wall.Spans(), l.wall.Dropped()); err != nil {
		return nil, err
	}
	return l.vals, nil
}

func loadRef(path string) (*refidx.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := seqio.ReadFasta(f)
	if err != nil {
		return nil, err
	}
	return refidx.Build(recs)
}

func countFastq(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	err = seqio.ForEachFastq(f, func(seqio.Record) error { n++; return nil })
	return n, err
}

// coreLayer replays CASA's per-partition stages on both strands of every
// read: the exact-match check, the pre-seeding filter lookups of every
// k-mer, and the filter-enabled SMEM search; then the modelled cycle
// count of the same reads, which is deterministic.
func (l *layerRun) coreLayer(casa engine.Engine, reads []dna.Sequence) error {
	acc, ok := casa.Clone().(engine.Unwrapper).Unwrap().(*core.Accelerator)
	if !ok {
		return fmt.Errorf("casa engine does not unwrap to *core.Accelerator")
	}
	parts := make([]*core.Partition, acc.Partitions())
	for i := range parts {
		parts[i] = acc.Partition(i).Clone()
	}
	strands := make([]dna.Sequence, 0, 2*len(reads))
	for _, rd := range reads {
		strands = append(strands, rd, rd.ReverseComplement())
	}
	exact := 0
	l.vals["core.exact_check_s"] = l.time("core", "Partition.ExactCheck", func() {
		for i := 0; i < len(strands); i += 2 {
			hit := false
			for _, s := range strands[i : i+2] {
				for _, p := range parts {
					if _, ok := p.ExactCheck(s); ok {
						hit = true
					}
				}
			}
			if hit {
				exact++
			}
		}
	})
	l.vals["core.exact_share"] = float64(exact) / float64(len(reads))

	k := acc.Config().K
	var kmers []dna.Kmer
	for _, s := range strands {
		for i := 0; i+k <= len(s); i++ {
			kmers = append(kmers, dna.PackKmer(s, i, k))
		}
	}
	lookups, hits := 0, 0
	secs := l.time("core", "Filter.Lookup", func() {
		for _, p := range parts {
			f := p.Filter()
			for _, km := range kmers {
				if _, ok := f.Lookup(km); ok {
					hits++
				}
			}
			lookups += len(kmers)
		}
	})
	l.vals["core.filter_lookup_ns"] = secs * 1e9 / float64(lookups)
	l.vals["core.filter_hit_share"] = float64(hits) / float64(lookups)

	l.vals["core.partition_seed_s"] = l.time("core", "Partition.SeedRead", func() {
		for _, s := range strands {
			for _, p := range parts {
				p.SeedRead(s)
			}
		}
	})

	modeler, ok := casa.(engine.Modeler)
	if !ok {
		return fmt.Errorf("casa engine has no model")
	}
	model := modeler.Model(batch.SeedEngine(casa, reads, batch.Options{}))
	l.vals["core.model_cycles"] = float64(model.Cycles)
	l.vals["core.model_reads_per_s"] = model.ReadsPerS
	return nil
}

// fmindexLayer replays the FM-index finder's forward-strand SMEM search
// and times single Occ ranks through RankBatch.
func (l *layerRun) fmindexLayer(path string, reads []dna.Sequence, seed int64) error {
	eng, _, err := loadIndex(path)
	if err != nil {
		return err
	}
	bidi, ok := eng.Clone().(engine.Unwrapper).Unwrap().(*smem.Bidirectional)
	if !ok {
		return fmt.Errorf("fmindex engine does not unwrap to *smem.Bidirectional")
	}
	var dst []smem.Match
	steps := 0
	l.vals["fmindex.seed_s"] = l.time("fmindex", "Bidirectional.AppendSMEMs", func() {
		for _, rd := range reads {
			dst = bidi.AppendSMEMs(dst[:0], rd, minSMEM)
			steps += bidi.Steps
		}
	})
	l.vals["fmindex.steps_per_read"] = float64(steps) / float64(len(reads))

	fm := bidi.Index.Fwd
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int32, rankQueries)
	for i := range idx {
		idx[i] = int32(rng.Intn(fm.Len() + 1))
	}
	out := make([]int32, rankBatch)
	secs := l.time("fmindex", "FMIndex.RankBatch", func() {
		for lo := 0; lo < len(idx); lo += rankBatch {
			fm.RankBatch(dna.Base(lo/rankBatch&3), idx[lo:lo+rankBatch], out)
		}
	})
	l.vals["fmindex.rank_ns"] = secs * 1e9 / float64(len(idx))
	return nil
}

// shardLayer times the sharded composite's per-read seeding against its
// inner engines seeding the same reads; the difference is the shard
// merge and dispatch overhead.
func (l *layerRun) shardLayer(path string, reads []dna.Sequence) error {
	eng, _, err := loadIndex(path)
	if err != nil {
		return err
	}
	sharded := eng.Clone()
	rs, ok := sharded.(engine.ReadSeeder)
	if !ok {
		return fmt.Errorf("%s is not a ReadSeeder", eng.Name())
	}
	var dst engine.Seeds
	l.vals["shard.seed_s"] = l.time("shard", "Sharded.SeedReadInto", func() {
		for _, rd := range reads {
			rs.SeedReadInto(&dst, rd)
		}
	})
	inners, ok := sharded.(engine.Unwrapper).Unwrap().([]engine.Engine)
	if !ok {
		return fmt.Errorf("%s does not unwrap to its inner engines", eng.Name())
	}
	var inner float64
	for i, in := range inners {
		irs, ok := in.Clone().(engine.ReadSeeder)
		if !ok {
			return fmt.Errorf("shard %d engine is not a ReadSeeder", i)
		}
		inner += l.time("shard", fmt.Sprintf("inner %d SeedReadInto", i), func() {
			for _, rd := range reads {
				irs.SeedReadInto(&dst, rd)
			}
		})
	}
	l.vals["shard.inner_seed_s"] = inner
	l.vals["shard.overhead_s"] = overhead(l.vals["shard.seed_s"], inner)
	return nil
}

// alignLayers replays casa-align's serial tail on reads: hit positions of
// both strands' SMEMs, SeedEx extension of both strands, and SAM output
// to a discard sink.
func (l *layerRun) alignLayers(casa engine.Engine, ix *refidx.Index, reads []dna.Sequence, names []string) error {
	pos, ok := casa.(engine.Positioner)
	if !ok {
		return fmt.Errorf("casa engine is not a Positioner")
	}
	seeds := pos.ReadSeeds(batch.SeedEngine(casa, reads, batch.Options{}))
	type strands struct{ fwd, rev []seedex.Seed }
	per := make([]strands, len(reads))
	rcs := make([]dna.Sequence, len(reads))
	for i, rd := range reads {
		rcs[i] = rd.ReverseComplement()
	}
	hits := 0
	toSeeds := func(strand dna.Sequence, ms []smem.Match) []seedex.Seed {
		var out []seedex.Seed
		for _, m := range ms {
			for _, p := range pos.HitPositions(strand, m, maxHits) {
				out = append(out, seedex.Seed{QStart: m.Start, QEnd: m.End, RefPos: p})
			}
		}
		hits += len(out)
		return out
	}
	l.vals["engine.hit_positions_s"] = l.time("engine", "Positioner.HitPositions", func() {
		for i, rd := range reads {
			per[i] = strands{toSeeds(rd, seeds[i].Forward), toSeeds(rcs[i], seeds[i].Reverse)}
		}
	})
	l.vals["engine.hits_per_read"] = float64(hits) / float64(len(reads))

	sx, err := seedex.New(ix.Flat(), seedex.DefaultConfig())
	if err != nil {
		return err
	}
	type best struct {
		al  seedex.Alignment
		ok  bool
		rev bool
	}
	bests := make([]best, len(reads))
	l.vals["seedex.extend_s"] = l.time("seedex", "Machine.ExtendRead", func() {
		for i, rd := range reads {
			f, fok := sx.ExtendRead(rd, per[i].fwd)
			r, rok := sx.ExtendRead(rcs[i], per[i].rev)
			switch {
			case rok && (!fok || r.Score > f.Score):
				bests[i] = best{r, true, true}
			case fok:
				bests[i] = best{f, true, false}
			}
		}
	})
	l.vals["seedex.bsw_cycles"] = float64(sx.Stats.BSWCycles)

	var refs []sam.RefSeq
	for _, c := range ix.Chromosomes() {
		refs = append(refs, sam.RefSeq{Name: c.Name, Length: c.Length})
	}
	recs := make([]sam.Record, len(reads))
	for i, rd := range reads {
		b := bests[i]
		chrom, local, ok := ix.ResolveSpan(b.al.RefStart, b.al.Cigar.RefLen())
		if !b.ok || !ok {
			recs[i] = sam.Unmapped(names[i], rd, nil)
			continue
		}
		rec := sam.Record{QName: names[i], RName: chrom.Name, Pos: local + 1, Cigar: b.al.Cigar,
			EditDistance: b.al.EditDist, Score: b.al.Score, HasTags: true, Seq: rd}
		if b.rev {
			rec.Flag, rec.Seq = sam.FlagReverse, rcs[i]
		}
		recs[i] = rec
	}
	l.vals["sam.write_s"] = l.time("sam", "Writer.Write", func() {
		w := sam.NewWriter(io.Discard, refs, "perfbench")
		for _, rec := range recs {
			if err = w.Write(rec); err != nil {
				return
			}
		}
		err = w.Flush()
	})
	return err
}

// serveLayer serves eng in this process and sends single-client requests
// of batchReads reads; each request's latency minus batch.SeedEngine's
// time on the same batch is the serving overhead (HTTP, FASTQ parse,
// queueing, report encoding). It returns the median, in ms.
func (l *layerRun) serveLayer(ctx context.Context, eng engine.Engine, reads []readsim.Read) (float64, error) {
	s, err := serve.StartEngine("127.0.0.1:0", eng, serve.Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	bodies, err := fastqBatches(reads, batchReads)
	if err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var diffs []float64
	for i, body := range bodies {
		seqs := readsim.Sequences(reads[i*batchReads : min((i+1)*batchReads, len(reads))])
		seedS := l.time("batch", "SeedEngine request batch", func() {
			batch.SeedEngine(eng, seqs, batch.Options{})
		})
		var lat float64
		lat = l.time("serve", "POST /v1/seed", func() {
			err = postOnce(ctx, client, "http://"+s.Addr()+"/v1/seed", body)
		})
		if err != nil {
			return 0, err
		}
		if i > 0 { // the first request warms the connection
			diffs = append(diffs, overhead(lat, seedS)*1e3)
		}
	}
	return median(diffs), nil
}

func postOnce(ctx context.Context, client *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("in-process serve: HTTP %d", resp.StatusCode)
	}
	return nil
}
