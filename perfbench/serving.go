package main

import (
	"context"
	"fmt"
	"time"
)

// The serve-fm traffic. Closed-loop request latencies are the gated
// latency metrics: every request waits behind at most the other
// clients' ones, so they move with the server's speed and no more. The
// open loop runs at a fixed rate, about half the closed-loop capacity
// (about 130 requests/s) measured at the commit that introduced this
// benchmark on a 2-CPU host; queueing there amplifies the host's own
// run-to-run noise about threefold (a 25-38% quartile spread over five
// seeds), beyond any bound a gate could use, so its percentiles are
// reported on the side. openMin gives its p99 more than ten samples
// beyond it.
const (
	batchReads   = 256
	openRate     = 65.0 // requests per second
	openMin      = 1100 // open-loop requests at least
	checkBatches = 4    // batches re-sent with ?include=smems and compared in process
)

// runServeWorkload starts casa-serve p.setups times, timing start to the
// first /healthz 200. The next-to-last server takes the closed-loop
// passes over the full read set (p.fullRuns, and more until p.seconds)
// and gives peak_rss_mb: with at most one request per client in flight
// its peak does not depend on how the open loop happened to queue. The
// last server takes the open-loop phase, when p asks for one, and the
// ?include=smems samples. With one set-up, one server does all of it.
func (r *runner) runServeWorkload(ctx context.Context, m *e2e, p plan) {
	batches, err := fastqBatches(r.rs.reads, batchReads)
	if err != nil {
		m.fail(err)
		return
	}
	sizes := make([]int, len(batches))
	for i := range sizes {
		sizes[i] = min(batchReads, len(r.rs.reads)-i*batchReads)
	}
	for i := 0; i < p.setups && ctx.Err() == nil; i++ {
		closed, last := i == max(p.setups-2, 0), i == p.setups-1
		args := []string{"-index", r.c.indexPath(r.w.engine)}
		if closed && p.toolTrace != "" {
			// Room for every span of every run, so none is dropped.
			args = append(args, "-trace", p.toolTrace, "-trace-spans", "1000000")
		}
		m.attempted++
		s, err := startServer(ctx, r.tool(), args)
		if err != nil {
			m.fail(err)
			continue
		}
		m.setup = append(m.setup, s.setup)
		if closed || last {
			g := newLoadgen(s.addr, batches, sizes, r.procs)
			r.servePhases(ctx, m, g, p, closed, last)
			g.close()
		}
		rss, sigtermed, err := s.stop(closed || last)
		if sigtermed {
			m.setupSigterms++
		}
		if err != nil {
			m.attempted++
			m.fail(err)
			continue
		}
		if closed {
			m.rssMB = append(m.rssMB, rss)
		}
	}
}

func (r *runner) servePhases(ctx context.Context, m *e2e, g *loadgen, p plan, closed, last bool) {
	// Warm-up: one request per client, not measured.
	for i := 0; i < g.clients && i < len(g.batches); i++ {
		if _, err := g.post(ctx, i, ""); err != nil {
			m.attempted++
			m.fail(fmt.Errorf("warm-up: %w", err))
			return
		}
	}
	if closed {
		start := time.Now()
		for pass := 0; (pass < p.fullRuns || since(start) < p.seconds) && ctx.Err() == nil; pass++ {
			wall, lat, errs := g.closedLoop(ctx)
			m.attempted += len(g.batches)
			m.latencyMS = append(m.latencyMS, lat...)
			for _, err := range errs {
				m.fail(err)
			}
			if len(errs) == 0 {
				m.wall = append(m.wall, wall)
			}
		}
	}
	if !last {
		return
	}
	if p.openSeconds > 0 {
		n := max(openMin, int(openRate*p.openSeconds))
		samples, errs := g.openLoop(ctx, poissonSchedule(openRate, n, r.seed))
		m.attempted += len(samples)
		for _, err := range errs {
			m.fail(err)
		}
		for _, s := range samples {
			m.openMS = append(m.openMS, s.latency())
			m.latenessMS = append(m.latenessMS, s.lateness())
		}
	}
	for i := 0; i < checkBatches && i < len(g.batches); i++ {
		m.attempted++
		rep, err := g.post(ctx, i, "?include=smems")
		if err != nil {
			m.fail(err)
			continue
		}
		m.served = append(m.served, servedCheck{lo: i * batchReads, rep: rep})
	}
}
