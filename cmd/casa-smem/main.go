// Command casa-smem computes SMEMs for reads against a reference with any
// engine registered in internal/engine (casa, ert, genax, gencache, cpu,
// fmindex, brute — `-engine list` prints them) and optionally cross-checks
// two engines against each other, mirroring the paper's §6 validation
// ("CASA produces identical SMEMs to GenAx and 100% SMEMs of BWA-MEM2 are
// contained").
//
// Reads are seeded as one batch over a worker pool (-workers); results
// are reported in input order regardless of completion order. The run is
// interruptible: SIGINT stops handing out new shards, drains the
// in-flight ones, and the command still emits its report, metrics and
// trace for the completed read prefix before exiting with status 130.
//
// Observability (see docs/OBSERVABILITY.md): every engine publishes its
// activity counters and model gauges into a metrics registry, and every
// run drives a live casa-progress/v1 tracker. -json emits a stable
// machine-readable report (schema casa-smem/v1) on stdout; -metrics
// writes the Prometheus-style text exposition to stderr; -trace records
// the run's cycle-domain spans (casa-trace/v1; Chrome JSON, or JSONL for
// .jsonl paths) with optional -trace-sample sampling; -walltrace records
// the host wall-clock profile (casa-walltrace/v1: per-shard worker spans
// plus the CLI's load/build/seed phases, index-load instead of build
// under -index — analyze with casa-trace -wall);
// -http serves
// /metrics, /trace, /progress, /events and /debug/pprof until
// interrupted; -progress logs periodic snapshots for non-HTTP runs;
// -stall-timeout arms a watchdog that dumps per-worker state and
// goroutines when no shard completes in time. Diagnostics go to stderr
// as run-scoped structured logs (-log-level, -log-format). Engine
// opening and telemetry go through internal/cli, which also fixes the
// exit codes: 0 ok, 1 run failure or -verify mismatches, 2 usage error
// or flag conflict, 130 interrupted.
//
// Usage:
//
//	casa-smem -ref ref.fa -reads reads.fq -engine casa [-verify fmindex] [-min-smem 19] [-workers 8] [-json] [-metrics] [-trace out.json] [-trace-sample slowest:100] [-walltrace wall.json] [-http localhost:6060] [-progress 5s] [-stall-timeout 1m] [-log-format json]
//	casa-smem -index ref.casaidx -reads reads.fq [-json]
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"casa/internal/batch"
	"casa/internal/cli"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/serve"
	"casa/internal/smem"
)

// The -json output document is serve.Report: the CLI and the casa-serve
// HTTP API share one casa-smem/v1 type, so a batch seeded offline and one
// POSTed to /v1/seed produce byte-identical modelled fields.

// findAll seeds reads on the pool and returns the engine's forward-strand
// SMEM sets in input order; on cancellation the slice covers exactly the
// completed read prefix (length n) and err is ctx.Err().
func findAll(ctx context.Context, e engine.Engine, reads []dna.Sequence, pool batch.Options) ([][]smem.Match, int, error) {
	res, done, err := batch.SeedEngineCtx(ctx, e, reads, pool)
	return e.SMEMs(res), done, err
}

// SIGINT cancels the run context: the pool drains in-flight shards, the
// completed prefix is reported with its telemetry, and the command exits
// 130. A second SIGINT kills the process immediately.
func main() { cli.Main(run, os.Interrupt) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("casa-smem", stdout, stderr)
	fs := c.Flags
	var src cli.Source
	var tel cli.Telemetry
	fs.StringVar(&src.Ref, "ref", "", "reference FASTA (required unless -index)")
	fs.StringVar(&src.Index, "index", "", "prebuilt casa-idx/v1 index (casa-index output); replaces -ref, and the engine and min-smem come from its header")
	readsPath := fs.String("reads", "", "reads FASTQ (required)")
	fs.StringVar(&src.Engine, "engine", "casa", "seeding engine (any registered name; \"list\" prints them)")
	fs.StringVar(&src.Verify, "verify", "", "second engine to cross-check against (\"list\" prints the choices)")
	fs.IntVar(&src.Options.MinSMEM, "min-smem", 19, "minimum SMEM length")
	fs.IntVar(&src.Options.Shards, "shards", 0, "reference shards for sharded:* engines (0 = engine default)")
	fs.IntVar(&src.Options.ShardOverlap, "shard-overlap", 0, "shard overlap in bases for sharded:* engines (0 = engine default)")
	maxReads := fs.Int("max-reads", 1000, "cap the number of reads (0 = all)")
	workers := fs.Int("workers", 0, "seeding worker goroutines (0 = one per CPU)")
	quiet := fs.Bool("quiet", false, "suppress per-read output (counts only)")
	jsonOut := fs.Bool("json", false, "emit a "+serve.ReportSchema+" JSON report on stdout instead of text")
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
	loadStart := time.Now()
	reads, names, err := cli.LoadReads(*readsPath, *maxReads)
	if err != nil {
		return r.Fail(err)
	}
	r.Phase("load", loadStart)
	pool := batch.Options{Workers: *workers}
	o, err := r.Open(&src, &pool, int64(len(reads)))
	if err != nil {
		return r.Fail(err)
	}
	minSMEM := o.Header.MinSMEM
	r.Log.Info("run starting", "reads", len(reads), "workers", pool.WorkerCount(), "min_smem", minSMEM)

	seedStart := time.Now()
	got, done, runErr := findAll(ctx, o.Engine, reads, pool)
	r.Phase("seed", seedStart)
	r.Tracker.Finish()
	interrupted := runErr != nil
	if interrupted {
		r.Log.Warn("run interrupted; reporting the completed prefix",
			"reads_done", done, "total_reads", len(reads))
	}

	var want [][]smem.Match
	vdone := 0
	if src.Verify != "" && !interrupted {
		ver, err := engine.New(src.Verify, o.Ref.Flat(), src.Options)
		if err != nil {
			return r.Fail(err)
		}
		// The verify pass reuses the metrics/trace sinks (both engines'
		// spans land in one trace as separate processes) but not the
		// progress tracker — the live run it describes is finished.
		vpool := pool
		vpool.Progress = nil
		want, vdone, err = findAll(ctx, ver, reads, vpool)
		if err != nil {
			interrupted = true
			r.Log.Warn("verify pass interrupted; cross-checking the completed prefix",
				"reads_verified", vdone)
		}
	}

	totalSMEMs, mismatches := 0, 0
	for i := 0; i < done; i++ {
		ms := got[i]
		totalSMEMs += len(ms)
		if !*quiet && !*jsonOut {
			fmt.Fprintf(stdout, "%s\t%d SMEMs", names[i], len(ms))
			for _, m := range ms {
				fmt.Fprintf(stdout, "\t%s", m)
			}
			fmt.Fprintln(stdout)
		}
		if want != nil && i < vdone && !smem.SameIntervals(ms, want[i]) {
			mismatches++
			fmt.Fprintf(stderr, "MISMATCH %s:\n  %s: %v\n  %s: %v\n", names[i], src.Engine, ms, src.Verify, want[i])
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(serve.Report{
			Schema:      serve.ReportSchema,
			RunID:       r.ID,
			Engine:      src.Engine,
			Verify:      src.Verify,
			MinSMEM:     minSMEM,
			Workers:     pool.WorkerCount(),
			Reads:       done,
			SMEMs:       totalSMEMs,
			Mismatches:  mismatches,
			Interrupted: interrupted,
			Metrics:     r.Metrics,
		}); err != nil {
			return r.Fail(err)
		}
	} else {
		fmt.Fprintf(stdout, "\n%d reads, %d SMEMs via %s", done, totalSMEMs, src.Engine)
		if want != nil {
			fmt.Fprintf(stdout, "; %d mismatches vs %s", mismatches, src.Verify)
		}
		if interrupted {
			fmt.Fprintf(stdout, " (interrupted: %d of %d reads)", done, len(reads))
		}
		fmt.Fprintln(stdout)
	}
	return r.Close(ctx, interrupted, mismatches)
}
