package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	"casa/internal/batch"
	"casa/internal/metrics"
	"casa/internal/obshttp"
	"casa/internal/progress"
	"casa/internal/trace"
)

// LogFlags are the structured-logging flags.
type LogFlags struct{ Level, Format string }

// Register adds -log-level and -log-format to fs.
func (l *LogFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&l.Level, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.StringVar(&l.Format, "log-format", "text", "log output format: text or json")
}

// Logger builds the logger the flags describe, writing to w.
func (l LogFlags) Logger(w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(l.Level)); err != nil {
		return nil, Usagef("bad -log-level %q: %v", l.Level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch l.Format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, Usagef("bad -log-format %q (want text or json)", l.Format)
}

// Telemetry holds the observability flags of a seeding run.
type Telemetry struct {
	LogFlags
	Metrics                        bool
	Trace, TraceSample, Wall, HTTP string
	ProgressEvery, StallAfter      time.Duration
}

// Register adds the telemetry flags to fs.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	t.LogFlags.Register(fs)
	fs.BoolVar(&t.Metrics, "metrics", false, "write the metrics text exposition to stderr after the run")
	fs.StringVar(&t.Trace, "trace", "", "write a casa-trace/v1 trace of the seeding run (.jsonl = JSONL, else Chrome JSON)")
	fs.StringVar(&t.TraceSample, "trace-sample", "all", "trace sampling policy: all, head:N, slowest:N")
	fs.StringVar(&t.Wall, "walltrace", "", "write a casa-walltrace/v1 host wall-clock profile of the run (Chrome JSON; analyze with casa-trace -wall)")
	fs.StringVar(&t.HTTP, "http", "", "serve /metrics, /trace, /progress, /events and /debug/pprof on this address until interrupted")
	fs.DurationVar(&t.ProgressEvery, "progress", 0, "log a progress snapshot at this interval (0 = off)")
	fs.DurationVar(&t.StallAfter, "stall-timeout", 0, "warn with per-worker state and a goroutine dump when no seeding shard completes for this long (0 = off)")
}

// Run is one seeding run's telemetry: a run-scoped logger, the metrics
// registry, the cycle-domain trace and host wall-clock recorders the
// flags ask for, the progress tracker, and the -http server.
type Run struct {
	ID      string
	Log     *slog.Logger
	Metrics *metrics.Registry
	Trace   *trace.Trace      // nil unless -trace or -http
	Wall    *trace.WallTrace  // nil unless -walltrace
	Tracker *progress.Tracker // set by Open

	cmd    *Command
	tel    *Telemetry
	srv    *obshttp.Server
	wd     *progress.Watchdog
	ticker chan struct{}    // closed when the -progress ticker exits
	now    func() time.Time // the tracker's clock; nil = wall clock
}

// Start begins a run with t's telemetry, its log records labelled with
// the run ID and engineName. The -http server starts here, so
// /debug/pprof also covers the engine open.
func (c *Command) Start(t *Telemetry, engineName string) (*Run, error) {
	log, err := t.Logger(c.Stderr)
	if err != nil {
		return nil, err
	}
	r := &Run{ID: progress.NewRunID(), Metrics: metrics.New(), cmd: c, tel: t}
	r.Log = log.With("run_id", r.ID, "engine", engineName)
	// Record spans whenever anything could consume them: a -trace file
	// or the /trace endpoint.
	if t.Trace != "" || t.HTTP != "" {
		policy, err := trace.ParsePolicy(t.TraceSample)
		if err != nil {
			return nil, Usagef("%v", err)
		}
		r.Trace = trace.New(policy, 0)
	}
	if t.Wall != "" {
		r.Wall = trace.NewWall(0)
	}
	if t.HTTP != "" {
		if r.srv, err = obshttp.Start(t.HTTP, r.Metrics); err != nil {
			return nil, err
		}
		r.Log.Info("observability server listening", "addr", r.srv.Addr())
	}
	return r, nil
}

// Phase records one host phase of the command into the wall trace.
func (r *Run) Phase(name string, start time.Time) {
	r.Wall.Record(r.cmd.Name, "phase", name, start, time.Since(start))
}

// Open opens src's engine, recording its host phases, and then starts
// progress tracking for pool over total reads (0 = unknown; grow it with
// AddTotal): the tracker, /progress and /events, the -progress ticker
// and the -stall-timeout watchdog. Tracking starts after the open, so
// host rates cover seeding only. It attaches the run's metrics, trace,
// wall and progress sinks to pool.
func (r *Run) Open(src *Source, pool *batch.Options, total int64) (*Opened, error) {
	o, err := src.Open(r.Phase)
	if err != nil {
		return nil, err
	}
	pool.Metrics, pool.Trace, pool.Wall = r.Metrics, r.Trace, r.Wall
	r.Tracker = progress.New(r.ID, src.Engine, pool.WorkerCount(), total)
	if r.now != nil {
		r.Tracker.SetNow(r.now)
	}
	pool.Progress = r.Tracker
	if r.srv != nil {
		r.srv.SetProgress(r.Tracker)
	}
	if r.tel.StallAfter > 0 {
		r.wd = progress.NewWatchdog(r.Tracker, r.tel.StallAfter, r.Log)
		r.wd.Start()
	}
	if every := r.tel.ProgressEvery; every > 0 {
		r.ticker = make(chan struct{})
		go func(t *progress.Tracker, exited chan struct{}) {
			defer close(exited)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-t.Done():
					return
				case <-tick.C:
					r.logSnapshot(t.Snapshot())
				}
			}
		}(r.Tracker, r.ticker)
	}
	return o, nil
}

// Close ends a run that produced its output and returns the exit code.
// It writes -trace and -walltrace (publishing the trace at /trace),
// writes -metrics to stderr, serves -http until ctx is done unless the
// run was interrupted, releases the listener and logs the final progress
// snapshot. On an interrupted run the files hold the completed prefix
// and the code is 130; otherwise mismatches found by -verify make it 1.
func (r *Run) Close(ctx context.Context, interrupted bool, mismatches int) int {
	r.stopTracking()
	if err := r.writeFiles(); err != nil {
		return r.Fail(err)
	}
	if r.srv != nil && !interrupted {
		r.Log.Info("serving observability endpoints until interrupted", "addr", r.srv.Addr())
		<-ctx.Done()
	}
	r.release()
	if r.Tracker != nil {
		r.logSnapshot(r.Tracker.Snapshot())
	}
	switch {
	case interrupted:
		return 130
	case mismatches > 0:
		return 1
	}
	return 0
}

// writeFiles writes the -trace, -walltrace and -metrics outputs.
func (r *Run) writeFiles() error {
	if r.Trace != nil {
		spans := r.Trace.Spans()
		if r.srv != nil {
			r.srv.PublishTrace(spans)
		}
		if r.tel.Trace != "" {
			if err := trace.WriteFile(r.tel.Trace, spans); err != nil {
				return err
			}
		}
	}
	if r.Wall != nil {
		spans := r.Wall.Spans()
		if err := trace.WriteWallFile(r.tel.Wall, spans, r.Wall.Dropped()); err != nil {
			return err
		}
		r.Log.Info("wall trace written", "path", r.tel.Wall, "spans", len(spans), "dropped", r.Wall.Dropped())
	}
	if r.tel.Metrics {
		return r.Metrics.WriteText(r.cmd.Stderr)
	}
	return nil
}

// Fail logs err, releases the run's resources and returns the exit code.
func (r *Run) Fail(err error) int {
	r.Log.Error(err.Error())
	r.release()
	return exitCode(err)
}

// release stops progress tracking and closes the -http listener. It is
// idempotent, so every exit path may call it.
func (r *Run) release() {
	r.stopTracking()
	if r.srv != nil {
		if err := r.srv.Close(); err != nil {
			r.Log.Error(err.Error())
		}
		r.srv = nil
	}
}

// stopTracking finishes the tracker and waits for the -progress ticker
// and the watchdog to exit, so nothing logs after the run's output.
func (r *Run) stopTracking() {
	if r.Tracker != nil {
		r.Tracker.Finish()
	}
	if r.ticker != nil {
		<-r.ticker
		r.ticker = nil
	}
	if r.wd != nil {
		r.wd.Stop()
		r.wd = nil
	}
}

// logSnapshot logs one progress snapshot, the terminal counterpart of
// the /progress endpoint.
func (r *Run) logSnapshot(s progress.Snapshot) {
	r.Log.Info("progress",
		"reads_done", s.ReadsDone,
		"total_reads", s.TotalReads,
		"shards_done", s.ShardsDone,
		"percent_done", fmt.Sprintf("%.1f", s.PercentDone),
		"host_reads_per_s", fmt.Sprintf("%.0f", s.HostReadsPerS),
		"model_cycles", s.ModelCycles,
		"eta_s", fmt.Sprintf("%.1f", s.ETASeconds))
}
