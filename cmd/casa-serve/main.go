// Command casa-serve is the seeding front door: it loads a reference
// FASTA once, builds one engine from the internal/engine registry
// (-engine; "list" prints the catalogue), and serves read batches over
// HTTP until terminated — the long-running counterpart of casa-smem's
// one-shot batch run (see internal/serve for the API and queueing
// semantics).
//
//	POST /v1/seed      submit a FASTA/FASTQ batch (raw body or
//	                   curl -F reads=@reads.fq); answers a casa-smem/v1
//	                   JSON report, or an SSE stream of per-shard
//	                   progress events then the report with
//	                   Accept: text/event-stream; ?include=smems adds
//	                   per-read SMEM sets
//	GET  /v1/runs[/{id}]  run inventory / casa-progress/v1 snapshots
//	GET  /v1/stats     lifetime summary (casa-serve-stats/v1 JSON)
//	GET  /healthz, /metrics, /debug/runtrace, /debug/pprof/
//
// A full queue answers 429 with a Retry-After derived from observed run
// durations; disconnected clients free their slot via the pool's drain
// semantics. SIGTERM/SIGINT drain gracefully: stop accepting, finish the
// in-flight and queued runs, flush metrics (-metrics) and the wall-clock
// run lifecycle trace (-trace), exit 0. The handler is installed before
// the listener opens, so a signal right after start-up drains too. A
// second signal kills the process. See docs/OBSERVABILITY.md for the
// serving telemetry surface. The engine opens through internal/cli:
// under -index an explicit -engine, -min-smem or -partition must match
// the index header (exit 2 otherwise).
//
// Usage:
//
//	casa-serve -ref ref.fa [-addr :8844] [-engine casa] [-min-smem 19] [-workers 8] [-queue 8] [-metrics] [-trace run.json] [-log-format json]
//	casa-serve -index ref.casaidx [-addr :8844]
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"

	"casa/internal/cli"
	"casa/internal/progress"
	"casa/internal/serve"
	"casa/internal/trace"
)

func main() { cli.Main(run, os.Interrupt, syscall.SIGTERM) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("casa-serve", stdout, stderr)
	fs := c.Flags
	var src cli.Source
	var logFlags cli.LogFlags
	fs.StringVar(&src.Ref, "ref", "", "reference FASTA (required unless -index)")
	fs.StringVar(&src.Index, "index", "", "prebuilt casa-idx/v1 index (casa-index output); replaces -ref, and the engine and min-smem come from its header")
	addr := fs.String("addr", "127.0.0.1:8844", "listen address (port 0 picks a free port)")
	fs.StringVar(&src.Engine, "engine", "casa", "seeding engine (any registered name; \"list\" prints them)")
	fs.IntVar(&src.Options.MinSMEM, "min-smem", 19, "minimum SMEM length")
	fs.IntVar(&src.Options.Partition, "partition", 0, "partition size in bases for partitioned engines (0 = engine default)")
	workers := fs.Int("workers", 0, "seeding worker goroutines per run (0 = one per CPU)")
	queueDepth := fs.Int("queue", 8, "seed requests queued behind the running one before 429")
	maxBody := fs.Int64("max-body", 64<<20, "largest accepted read batch in bytes")
	eventEvery := fs.Duration("event-interval", time.Second, "SSE heartbeat cadence between shard completions")
	metricsOut := fs.Bool("metrics", false, "write the serving metrics text exposition to stderr at shutdown")
	traceOut := fs.String("trace", "", "write the wall-clock run lifecycle trace (Chrome JSON) to this file at shutdown")
	traceCap := fs.Int("trace-spans", 0, "wall-clock lifecycle spans retained for /debug/runtrace and -trace (0 = library default)")
	logFlags.Register(fs)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if err := src.Resolve(fs); err != nil {
		return c.Fail(err)
	}
	logger, err := logFlags.Logger(stderr)
	if err != nil {
		return c.Fail(err)
	}
	logger = logger.With("pid", os.Getpid(), "server_id", progress.NewRunID())
	fail := func(err error) int {
		logger.Error(err.Error())
		return 1
	}

	loadStart := time.Now()
	o, err := src.Open(nil)
	if err != nil {
		return fail(err)
	}
	logger.Info("engine opened", "ref", src.Ref, "index", src.Index, "engine", src.Engine,
		"load_seconds", fmt.Sprintf("%.3f", time.Since(loadStart).Seconds()))
	s, err := serve.StartEngine(*addr, o.Engine, serve.Config{
		MinSMEM:           o.Header.MinSMEM,
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		MaxBodyBytes:      *maxBody,
		EventInterval:     *eventEvery,
		TraceSpanCapacity: *traceCap,
		Log:               logger,
	})
	if err != nil {
		return fail(err)
	}
	logger.Info("seeding server listening", "addr", s.Addr())

	<-ctx.Done()
	logger.Info("draining: finishing in-flight and queued runs")
	if err := s.Close(); err != nil {
		return fail(err)
	}
	if *metricsOut {
		if err := s.Metrics().WriteText(stderr); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		spans, dropped := s.RunTrace()
		if err := trace.WriteWallFile(*traceOut, spans, dropped); err != nil {
			return fail(err)
		}
		logger.Info("run trace written", "path", *traceOut,
			"spans", len(spans), "dropped", dropped)
	}
	logger.Info("drained, exiting")
	return 0
}
