package obshttp

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// do issues one request with no body and returns the status code and the
// Allow header.
func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Allow")
}

// traceSpans returns a small published-trace fixture.
func traceSpans() []trace.Span {
	tr := trace.New(trace.PolicyAll, 0)
	tr.NewBuffer("casa").Emit(0, "exact", "exact", 0, 10)
	return tr.Spans()
}

// TestMethodMatrix drives every read-only endpoint with every relevant
// method: GET and HEAD pass through to the handler, everything else is
// 405 with an Allow header naming GET.
func TestMethodMatrix(t *testing.T) {
	reg := metrics.New()
	s, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := progress.New("rid", "casa", 1, 10)
	s.SetProgress(tr)
	s.PublishTrace(traceSpans())
	base := "http://" + s.Addr()

	// Per endpoint: the code GET must produce (HEAD must match it).
	endpoints := []struct {
		path    string
		getCode int
	}{
		{"/", http.StatusOK},
		{"/progress", http.StatusOK},
		{"/events", http.StatusOK}, // run finished below, so the stream terminates
		{"/metrics", http.StatusOK},
		{"/trace", http.StatusOK},
	}
	tr.Finish() // lets GET /events return instead of streaming forever
	for _, ep := range endpoints {
		for _, method := range []string{
			http.MethodGet, http.MethodHead, http.MethodPost,
			http.MethodPut, http.MethodDelete, http.MethodPatch,
		} {
			code, allow := do(t, method, base+ep.path)
			switch method {
			case http.MethodGet, http.MethodHead:
				if code != ep.getCode {
					t.Errorf("%s %s: code %d, want %d", method, ep.path, code, ep.getCode)
				}
			default:
				if code != http.StatusMethodNotAllowed {
					t.Errorf("%s %s: code %d, want 405", method, ep.path, code)
				}
				if !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodHead) {
					t.Errorf("%s %s: Allow %q, want GET and HEAD listed", method, ep.path, allow)
				}
			}
		}
	}
}

// TestIndexAdvertisesEnabledEndpoints pins the dynamic index page: the
// live endpoints appear only once their backing state is attached, and
// /metrics without a registry is a 503, not a 404.
func TestIndexAdvertisesEnabledEndpoints(t *testing.T) {
	s, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/")
	if code != http.StatusOK {
		t.Fatalf("index: code %d", code)
	}
	for _, absent := range []string{"/metrics", "/progress", "/events", "/trace"} {
		if strings.Contains(body, absent) {
			t.Errorf("bare index advertises %s, which would 503", absent)
		}
	}
	if !strings.Contains(body, "/debug/pprof/") {
		t.Error("index does not list /debug/pprof/, which is always served")
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("/metrics with nil registry: code %d, want 503", code)
	}

	s.SetProgress(progress.New("rid", "casa", 1, 10))
	s.PublishTrace(traceSpans())
	_, body = get(t, base+"/")
	for _, present := range []string{"/progress", "/events", "/trace"} {
		if !strings.Contains(body, present) {
			t.Errorf("index misses %s after it became available", present)
		}
	}
	if strings.Contains(body, "/metrics") {
		t.Error("index advertises /metrics on a server started without a registry")
	}
}

// TestEventsAfterFinish pins the late-subscriber contract: a client
// connecting after the run finished gets one progress snapshot and the
// terminal done event immediately — no hang, then EOF.
func TestEventsAfterFinish(t *testing.T) {
	s, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := progress.New("rid", "casa", 1, 20)
	tr.ShardDone(0, 20, 19)
	tr.Finish()
	s.SetProgress(tr)

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) != 2 {
		t.Fatalf("late subscriber got %d events, want exactly progress + done", len(events))
	}
	if events[0].name != "progress" || events[1].name != "done" {
		t.Fatalf("late subscriber events: %s, %s; want progress, done", events[0].name, events[1].name)
	}
	if !events[1].snap.Done || events[1].snap.ReadsDone != 20 {
		t.Fatalf("terminal snapshot wrong: %+v", events[1].snap)
	}
}

// TestShutdownRacesEventsStream opens a stream and shuts the server down
// immediately — the shutdown must not deadlock against the handler's
// startup, whichever side wins the race.
func TestShutdownRacesEventsStream(t *testing.T) {
	for i := 0; i < 10; i++ {
		s, err := Start("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := progress.New("rid", "casa", 1, 0)
		s.SetProgress(tr)
		if err := s.SetEventInterval(time.Millisecond); err != nil {
			t.Fatal(err)
		}

		streamDone := make(chan struct{})
		go func() {
			defer close(streamDone)
			resp, err := http.Get("http://" + s.Addr() + "/events")
			if err != nil {
				return // shutdown won before the connection: fine
			}
			defer resp.Body.Close()
			readSSE(t, bufio.NewScanner(resp.Body))
		}()

		shutDone := make(chan error, 1)
		go func() { shutDone <- s.Close() }()
		select {
		case err := <-shutDone:
			if err != nil {
				t.Fatalf("iteration %d: shutdown: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: shutdown hung against a racing stream", i)
		}
		<-streamDone
	}
}

// TestSetEventInterval pins the validation contract: non-positive
// cadences are errors and leave the configured interval untouched.
func TestSetEventInterval(t *testing.T) {
	s, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SetEventInterval(50 * time.Millisecond); err != nil {
		t.Fatalf("positive interval rejected: %v", err)
	}
	for _, d := range []time.Duration{0, -time.Second} {
		if err := s.SetEventInterval(d); err == nil {
			t.Fatalf("SetEventInterval(%v) accepted, want error", d)
		}
	}
	if _, interval := s.progressState(); interval != 50*time.Millisecond {
		t.Fatalf("rejected interval overwrote the configured one: %v", interval)
	}
}
