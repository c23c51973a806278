package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: the casa-trace/v1 mapping is
//
//   - one trace_event *process* per Proc (engine or pipeline system),
//   - one *thread* per Track (stage or partition),
//   - one complete ("X") event per span, with one modelled cycle
//     rendered as one microsecond (trace_event's ts/dur unit), so
//     Perfetto's time axis reads directly in cycles.
//
// Read spans carry read-local timestamps; the exporter serializes each
// process's reads onto its timeline back to back (read r starts where
// read r-1's timeline ended), which preserves every span's duration and
// intra-read structure while giving Perfetto a single non-overlapping
// waterfall per process. The read index is in every event's args.
//
// Output is deterministic: events are written in (Proc, Read, emission)
// order with sorted metadata up front, so identical span streams —
// guaranteed by the recorder across worker counts — produce identical
// bytes.

// chromeDoc is the top-level Chrome JSON object format.
type chromeDoc struct {
	TraceEvents []chromeEvent   `json:"traceEvents"`
	OtherData   chromeOtherData `json:"otherData"`
}

type chromeOtherData struct {
	Schema string `json:"schema"`
}

// chromeEvent is one trace_event entry. Args is a pointer to a fixed
// struct so field order (and therefore the output bytes) is stable.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Dur  *int64      `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name   string `json:"name,omitempty"`   // metadata events
	Read   *int   `json:"read,omitempty"`   // read-scoped span events
	Cycles *int64 `json:"cycles,omitempty"` // cycle-domain span events
	RunID  string `json:"run_id,omitempty"` // wall-domain span events (wall.go)
}

// WriteChrome writes the span stream as Chrome trace_event JSON (object
// format), loadable in Perfetto and chrome://tracing. spans must be in
// the deterministic merged order Trace.Spans returns.
func WriteChrome(w io.Writer, spans []Span) error {
	doc := chromeDoc{
		TraceEvents: buildChromeEvents(spans),
		OtherData:   chromeOtherData{Schema: SchemaVersion},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

func buildChromeEvents(spans []Span) []chromeEvent {
	ids, events := layoutChrome(len(spans), func(i int) (string, string) {
		return spans[i].Proc, spans[i].Track
	})

	// Per-process read base offsets: reads are laid out back to back in
	// index order, each occupying its read-local timeline length.
	ends := map[string]map[int32]int64{}
	for _, s := range spans {
		if s.Read == SystemRead {
			continue
		}
		if ends[s.Proc] == nil {
			ends[s.Proc] = map[int32]int64{}
		}
		if e := s.End(); e > ends[s.Proc][s.Read] {
			ends[s.Proc][s.Read] = e
		}
	}
	base := map[string]map[int32]int64{}
	for p, perRead := range ends {
		reads := make([]int32, 0, len(perRead))
		for r := range perRead {
			reads = append(reads, r)
		}
		sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
		base[p] = map[int32]int64{}
		var cursor int64
		for _, r := range reads {
			base[p][r] = cursor
			cursor += perRead[r]
		}
	}

	for _, s := range spans {
		s := s
		ts := s.Start
		args := &chromeArgs{Cycles: &s.Dur}
		if s.Read != SystemRead {
			ts += base[s.Proc][s.Read]
			r := int(s.Read)
			args.Read = &r
		}
		events = append(events, ids.event(s.Proc, s.Track, s.Name, ts, &s.Dur, args))
	}
	return events
}

// ParseChrome decodes Chrome trace_event JSON written by WriteChrome back
// into a span stream. Timestamps come back absolute (the per-read base
// offsets stay baked in), which is what the casa-trace analyses operate
// on; Read and Dur round-trip exactly.
func ParseChrome(data []byte) ([]Span, error) {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: chrome parse: %w", err)
	}
	if doc.OtherData.Schema != SchemaVersion {
		return nil, fmt.Errorf("trace: chrome schema %q, want %q", doc.OtherData.Schema, SchemaVersion)
	}
	var spans []Span
	err := parseChromeEvents(doc.TraceEvents, func(proc, track string, ev chromeEvent, dur int64) {
		s := Span{Proc: proc, Track: track, Name: ev.Name, Read: SystemRead, Start: ev.Ts, Dur: dur}
		if ev.Args != nil && ev.Args.Read != nil {
			s.Read = int32(*ev.Args.Read)
		}
		spans = append(spans, s)
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return spans, nil
}

// chromeIDs maps each proc to its trace_event pid and each (proc, track)
// pair to its tid. Both Chrome exports — cycle and wall domain — share
// this layout.
type chromeIDs struct {
	pid map[string]int
	tid map[string]map[string]int
}

// layoutChrome assigns pids to the n spans' procs and tids to each
// proc's tracks, both in sorted order from 1, and returns the ids with
// the process_name/thread_name metadata events that lead every export
// (procs sorted, each followed by its sorted tracks). pt returns span
// i's proc and track.
func layoutChrome(n int, pt func(i int) (proc, track string)) (chromeIDs, []chromeEvent) {
	ids := chromeIDs{pid: map[string]int{}, tid: map[string]map[string]int{}}
	for i := 0; i < n; i++ {
		p, t := pt(i)
		if ids.tid[p] == nil {
			ids.tid[p] = map[string]int{}
		}
		ids.tid[p][t] = 0
	}
	procs := sortedKeys(ids.tid)
	events := make([]chromeEvent, 0, n+2*len(procs))
	for i, p := range procs {
		pid := i + 1
		ids.pid[p] = pid
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: &chromeArgs{Name: p}})
		for j, t := range sortedKeys(ids.tid[p]) {
			ids.tid[p][t] = j + 1
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: j + 1, Args: &chromeArgs{Name: t}})
		}
	}
	return ids, events
}

// event builds one complete ("X") span event on proc's track.
func (ids chromeIDs) event(proc, track, name string, ts int64, dur *int64, args *chromeArgs) chromeEvent {
	return chromeEvent{
		Name: name, Cat: track, Ph: "X", Ts: ts, Dur: dur,
		Pid: ids.pid[proc], Tid: ids.tid[proc][track], Args: args,
	}
}

// parseChromeEvents resolves the complete ("X") events of a Chrome
// document against its process_name/thread_name metadata and hands each
// to emit in document order, with its proc, track and duration (0 when
// absent). An event whose pid/tid has no metadata is an error.
func parseChromeEvents(events []chromeEvent, emit func(proc, track string, ev chromeEvent, dur int64)) error {
	procOf := map[int]string{}
	trackOf := map[[2]int]string{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Args == nil {
				continue
			}
			switch ev.Name {
			case "process_name":
				procOf[ev.Pid] = ev.Args.Name
			case "thread_name":
				trackOf[[2]int{ev.Pid, ev.Tid}] = ev.Args.Name
			}
		case "X":
			proc, track := procOf[ev.Pid], trackOf[[2]int{ev.Pid, ev.Tid}]
			if proc == "" || track == "" {
				return fmt.Errorf("event %q references pid %d / tid %d with no metadata", ev.Name, ev.Pid, ev.Tid)
			}
			var dur int64
			if ev.Dur != nil {
				dur = *ev.Dur
			}
			emit(proc, track, ev, dur)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
