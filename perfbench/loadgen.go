package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// loadgen drives casa-serve over HTTP from this one process. Every phase
// runs at most clients goroutines sending, and the transport opens at
// most clients connections.
type loadgen struct {
	client  *http.Client
	url     string
	batches [][]byte // FASTQ request bodies
	sizes   []int    // reads per batch
	clients int
}

func newLoadgen(addr string, batches [][]byte, sizes []int, clients int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &loadgen{
		client:  &http.Client{Transport: tr, Timeout: time.Minute},
		url:     "http://" + addr + "/v1/seed",
		batches: batches,
		sizes:   sizes,
		clients: clients,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// post sends batch i and checks the answer is a 200 report covering every
// read. A 429 or any other status is an error: a miss.
func (g *loadgen) post(ctx context.Context, i int, query string) (smemJSON, error) {
	var rep smemJSON
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+query, bytes.NewReader(g.batches[i]))
	if err != nil {
		return rep, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("batch %d: HTTP %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("batch %d: %w", i, err)
	}
	if rep.Reads != g.sizes[i] {
		return rep, fmt.Errorf("batch %d: report covers %d of %d reads", i, rep.Reads, g.sizes[i])
	}
	return rep, nil
}

// closedLoop sends every batch once: each of the clients sends its next
// batch only when its previous one is answered. It returns the pass's
// wall time and each request's latency in ms (+Inf for a miss), with the
// errors of failed requests.
func (g *loadgen) closedLoop(ctx context.Context) (float64, []float64, []error) {
	next := make(chan int)
	lat := make([]float64, len(g.batches))
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := time.Now()
				_, err := g.post(ctx, i, "")
				lat[i] = ms(time.Since(t))
				if err != nil {
					lat[i] = math.Inf(1)
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range g.batches {
		next <- i
	}
	close(next)
	wg.Wait()
	return since(start), lat, errs
}

// poissonSchedule returns n send offsets of a Poisson process at rate
// requests per second, drawn from seed.
func poissonSchedule(rate float64, n int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends request i at schedule[i] regardless of how earlier ones
// fare, cycling through the batches. A request waits for a free client
// when all are busy; it is then sent late, and its latency still counts
// from its due time.
func (g *loadgen) openLoop(ctx context.Context, schedule []time.Duration) ([]openSample, []error) {
	samples := make([]openSample, len(schedule))
	next := make(chan int) // unbuffered: handing off a request waits for a free client
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := &samples[i]
				s.sent = time.Since(start)
				_, err := g.post(ctx, i%len(g.batches), "")
				s.done = time.Since(start)
				s.ok = err == nil
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i, due := range schedule {
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].due = due
		next <- i
	}
	close(next)
	wg.Wait()
	return samples, errs
}
