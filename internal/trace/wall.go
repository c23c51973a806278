package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Wall-clock span domain. The rest of this package records *modelled*
// time — deterministic cycle counts that must be byte-identical across
// runs and worker counts. A serving process additionally needs to see
// where *host* wall-clock time goes: how long a request waited in the
// queue, how long the pool actually ran, how long the response took to
// stream. Those numbers are nondeterministic by nature, so they live in
// their own types (WallSpan / WallTrace), their own schema
// (casa-walltrace/v1) and their own export entry point (WriteChromeWall):
// a wall span can never leak into a cycle-domain trace document, and the
// cycle-domain determinism tests never see a wall timestamp.

// WallSchemaVersion identifies the wall-clock Chrome export layout. It is
// deliberately distinct from SchemaVersion: the two domains must not be
// mistaken for one another by tooling.
const WallSchemaVersion = "casa-walltrace/v1"

// WallSpan is one wall-clock event: Dur microseconds of host time on a
// named track. Start is absolute (Unix microseconds); WriteChromeWall
// rebases the stream onto its earliest span, so exported traces start at
// ts 0 regardless of when the process booted.
type WallSpan struct {
	Proc  string // process-level group, e.g. "casa-serve"
	Track string // lifecycle stage: "received", "queued", "running", ...
	Name  string // span label: the run ID, so spans join logs and metrics
	Start int64  // absolute start, µs since the Unix epoch
	Dur   int64  // duration, µs, >= 0
}

// End returns Start+Dur.
func (s WallSpan) End() int64 { return s.Start + s.Dur }

// DefaultWallCapacity bounds a WallTrace's memory when the caller passes
// a non-positive capacity: at five lifecycle spans per served run, the
// default ring remembers the last ~13k runs.
const DefaultWallCapacity = 1 << 16

// WallTrace is a bounded, concurrency-safe recorder of wall-clock spans.
// Unlike the cycle-domain Trace/Buffer pair it is emitted into directly
// from HTTP handlers and the dispatcher — many goroutines, low rate — so
// a single mutex-guarded ring is the right shape. When the ring is full
// the oldest span is dropped (and counted); a long-lived server keeps
// the most recent runs, which are the ones an operator is debugging.
// A nil *WallTrace is a valid no-op sink.
type WallTrace struct {
	mu      sync.Mutex
	spans   []WallSpan // ring storage, len == capacity once wrapped
	next    int        // ring write cursor
	wrapped bool
	cap     int
	dropped int64
}

// NewWall returns a wall-clock recorder retaining at most capacity spans
// (non-positive means DefaultWallCapacity).
func NewWall(capacity int) *WallTrace {
	if capacity <= 0 {
		capacity = DefaultWallCapacity
	}
	return &WallTrace{cap: capacity}
}

// Record appends one span with the given start time and duration.
// Negative durations are clamped to zero (a clock step backwards is not
// an event worth inventing time for). No-op on a nil recorder.
func (t *WallTrace) Record(proc, track, name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	d := dur.Microseconds()
	if d < 0 {
		d = 0
	}
	t.AddSpan(WallSpan{Proc: proc, Track: track, Name: name, Start: start.UnixMicro(), Dur: d})
}

// AddSpan appends one already-built span, clamping a negative duration to
// zero — the bulk-ingest counterpart of Record, used when folding a
// per-run recorder into a long-lived ring (casa-serve nests each run's
// batch-layer shard spans under its lifecycle trace this way). No-op on a
// nil recorder.
func (t *WallTrace) AddSpan(s WallSpan) {
	if t == nil {
		return
	}
	if s.Dur < 0 {
		s.Dur = 0
	}
	t.mu.Lock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.next] = s
		t.wrapped = true
	}
	t.next++
	if t.next == t.cap {
		t.next = 0
	}
	if t.wrapped {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of spans currently retained.
func (t *WallTrace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans the ring has evicted so far.
func (t *WallTrace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the retained spans sorted by (Start, Proc,
// Track, Name) — chronological order with a deterministic tie-break, the
// order WriteChromeWall expects. Safe to call while recorders still emit.
func (t *WallTrace) Spans() []WallSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]WallSpan, 0, len(t.spans))
	if t.wrapped {
		out = append(out, t.spans[t.next:]...)
		out = append(out, t.spans[:t.next]...)
	} else {
		out = append(out, t.spans...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Name < b.Name
	})
	return out
}

// chromeWallDoc is the wall-domain Chrome JSON object: the same
// trace_event body as the cycle export, under its own schema marker plus
// the domain tag and the ring's eviction count, so a consumer can tell a
// wall trace from a cycle trace (and a truncated one from a complete one)
// without heuristics.
type chromeWallDoc struct {
	TraceEvents []chromeEvent       `json:"traceEvents"`
	OtherData   chromeWallOtherData `json:"otherData"`
}

type chromeWallOtherData struct {
	Schema  string `json:"schema"`
	Domain  string `json:"domain"`
	Spans   int    `json:"spans"`
	Dropped int64  `json:"dropped,omitempty"`
}

// WriteChromeWall writes a wall-clock span stream as Chrome trace_event
// JSON, loadable in Perfetto and chrome://tracing: one process per Proc,
// one thread per Track, one complete ("X") event per span with its run
// ID as the event name, timestamps rebased so the earliest span starts
// at ts 0 (trace_event ts/dur are microseconds, the spans' native unit —
// Perfetto's time axis reads directly in real time). dropped is the
// recorder's eviction count (WallTrace.Dropped). Output is deterministic
// for a given span stream.
func WriteChromeWall(w io.Writer, spans []WallSpan, dropped int64) error {
	ids, events := layoutChrome(len(spans), func(i int) (string, string) {
		return spans[i].Proc, spans[i].Track
	})
	var epoch int64
	for i, s := range spans {
		if i == 0 || s.Start < epoch {
			epoch = s.Start
		}
	}
	for _, s := range spans {
		s := s
		events = append(events, ids.event(s.Proc, s.Track, s.Name, s.Start-epoch, &s.Dur, &chromeArgs{RunID: s.Name}))
	}

	doc := chromeWallDoc{
		TraceEvents: events,
		OtherData:   chromeWallOtherData{Schema: WallSchemaVersion, Domain: "wall", Spans: len(spans), Dropped: dropped},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
