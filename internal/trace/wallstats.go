package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Wall-span naming contract of the batch layer, plus the utilization
// analysis built on it. internal/batch records one wall span per claimed
// shard — proc names the worker, track names the engine, the span name
// carries the shard index, global read range and read count — and the
// formatting/parsing pair below is the single place that contract lives:
// the recorder (batch), the analyzer (casa-trace -wall) and the serving
// aggregation (casa-serve's lifetime worker metrics) all go through it,
// so the name format can evolve without the three drifting apart.

// wallWorkerPrefix starts every batch-worker process label.
const wallWorkerPrefix = "worker "

// WallHostProc is the process label of the batch layer's non-worker wall
// spans: the sequential reduce/merge phases that run on the caller's
// goroutine after the pool drains.
const WallHostProc = "host"

// WallWorkerProc returns the process label of one pool worker's wall
// spans, e.g. "worker 03". Zero-padded to two digits so Perfetto's
// process list (and the analyzer's table) sorts pools of up to 100
// workers naturally.
func WallWorkerProc(worker int) string {
	return fmt.Sprintf("%s%02d", wallWorkerPrefix, worker)
}

// ParseWallWorkerProc recovers the worker index from a WallWorkerProc
// label; ok is false for non-worker process labels (lifecycle spans,
// host phases).
func ParseWallWorkerProc(proc string) (worker int, ok bool) {
	rest, found := strings.CutPrefix(proc, wallWorkerPrefix)
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// WallShardName returns the span name of one claimed shard: its index in
// the run plus the global read range it covered, e.g.
// "shard 3 reads [300,400) n=100".
func WallShardName(shard, lo, hi int) string {
	return fmt.Sprintf("shard %d reads [%d,%d) n=%d", shard, lo, hi, hi-lo)
}

// ParseWallShardName recovers the shard index and read range from a
// WallShardName; ok is false for spans that are not shard spans (reduce,
// lifecycle stages, host phases).
func ParseWallShardName(name string) (shard, lo, hi int, ok bool) {
	var n int
	c, err := fmt.Sscanf(name, "shard %d reads [%d,%d) n=%d", &shard, &lo, &hi, &n)
	if err != nil || c != 4 {
		return 0, 0, 0, false
	}
	return shard, lo, hi, true
}

// WallWorkerStat summarizes one pool worker's wall spans: how many
// shards and reads it claimed and how much host time it spent busy.
// Workers run their shards sequentially, so busy time is the plain sum
// of span durations; everything between StartUS and EndUS not covered by
// a span is idle (waiting on the shard counter, or the pool tail).
type WallWorkerStat struct {
	Worker  int    // worker index parsed from the proc label
	Proc    string // the label itself
	Shards  int    // spans recorded (one per claimed shard)
	Reads   int    // total reads across shard spans (0 if names don't parse)
	BusyUS  int64  // sum of span durations
	StartUS int64  // earliest span start, µs since the epoch (or rebased)
	EndUS   int64  // latest span end
}

// WallWorkers splits a wall span stream into per-worker statistics
// (sorted by worker index) and the remaining non-worker spans (lifecycle
// stages, host phases, reduce spans) in input order.
func WallWorkers(spans []WallSpan) (workers []WallWorkerStat, others []WallSpan) {
	byWorker := map[int]*WallWorkerStat{}
	for _, s := range spans {
		w, ok := ParseWallWorkerProc(s.Proc)
		if !ok {
			others = append(others, s)
			continue
		}
		st := byWorker[w]
		if st == nil {
			st = &WallWorkerStat{Worker: w, Proc: s.Proc, StartUS: s.Start, EndUS: s.End()}
			byWorker[w] = st
		}
		st.Shards++
		st.BusyUS += s.Dur
		if _, lo, hi, ok := ParseWallShardName(s.Name); ok {
			st.Reads += hi - lo
		}
		if s.Start < st.StartUS {
			st.StartUS = s.Start
		}
		if s.End() > st.EndUS {
			st.EndUS = s.End()
		}
	}
	workers = make([]WallWorkerStat, 0, len(byWorker))
	for _, st := range byWorker {
		workers = append(workers, *st)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].Worker < workers[j].Worker })
	return workers, others
}

// WallImbalance is the pool's load-imbalance ratio: the maximum worker
// busy time over the mean. 1.0 is a perfectly balanced pool; the ratio
// approaches the worker count when one straggler serializes the run.
// Zero when no worker recorded any busy time.
func WallImbalance(workers []WallWorkerStat) float64 {
	if len(workers) == 0 {
		return 0
	}
	var total, maxBusy int64
	for _, st := range workers {
		total += st.BusyUS
		if st.BusyUS > maxBusy {
			maxBusy = st.BusyUS
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(workers))
	return float64(maxBusy) / mean
}

// WallWindow returns the wall-clock window [min start, max end) covered
// by the spans, in microseconds. Zero for an empty stream.
func WallWindow(spans []WallSpan) int64 {
	if len(spans) == 0 {
		return 0
	}
	lo, hi := spans[0].Start, spans[0].End()
	for _, s := range spans[1:] {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End() > hi {
			hi = s.End()
		}
	}
	return hi - lo
}

// ParseChromeWall decodes a casa-walltrace/v1 Chrome trace_event
// document (as written by WriteChromeWall) back into its span stream and
// eviction count. Timestamps come back as exported — rebased onto the
// stream's earliest span — which is what the wall analyses operate on;
// durations round-trip exactly.
func ParseChromeWall(data []byte) ([]WallSpan, int64, error) {
	var doc struct {
		TraceEvents []chromeEvent       `json:"traceEvents"`
		OtherData   chromeWallOtherData `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, 0, fmt.Errorf("trace: wall chrome parse: %w", err)
	}
	if doc.OtherData.Schema != WallSchemaVersion {
		return nil, 0, fmt.Errorf("trace: wall chrome schema %q, want %q", doc.OtherData.Schema, WallSchemaVersion)
	}
	var spans []WallSpan
	err := parseChromeEvents(doc.TraceEvents, func(proc, track string, ev chromeEvent, dur int64) {
		spans = append(spans, WallSpan{Proc: proc, Track: track, Name: ev.Name, Start: ev.Ts, Dur: dur})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("trace: wall %w", err)
	}
	return spans, doc.OtherData.Dropped, nil
}

// ParseWallFile reads a casa-walltrace/v1 Chrome JSON file.
func ParseWallFile(path string) ([]WallSpan, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return ParseChromeWall(data)
}

// WriteWallFile writes a wall span stream as a casa-walltrace/v1 Chrome
// JSON file — the file-sink counterpart of WriteChromeWall, what the
// CLIs' -walltrace flag produces.
func WriteWallFile(path string, spans []WallSpan, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeWall(f, spans, dropped); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
