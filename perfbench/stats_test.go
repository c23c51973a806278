package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileSampleRule(t *testing.T) {
	// p99 of 1000 samples is rank 990: exactly ten lie beyond it.
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990, true", v, ok)
	}
	// With 999 samples the p99 rank is 990 and only nine lie beyond.
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with nine samples beyond it")
	}
	if v, ok := percentile(seq(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %g, %v; want 11, true", v, ok)
	}
	if _, ok := percentile(seq(20), 0.5); !ok {
		t.Error("p50 of 20 samples (ten beyond) not reported")
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples (nine beyond) reported")
	}
}

func TestPercentileCountsMisses(t *testing.T) {
	xs := seq(1000)
	// Five requests that would have been the fastest fail instead: the
	// misses sort last and push the p99 rank onto larger samples...
	for i := 0; i < 5; i++ {
		xs[len(xs)-1-i] = math.Inf(1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 995 {
		t.Errorf("p99 with 5 misses = %g, %v; want 995, true", v, ok)
	}
	// ...and eleven put it on a miss, which has no value to report.
	for i := 0; i < 11; i++ {
		xs[len(xs)-1-i] = math.Inf(1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 landing on a miss was reported")
	}
}

func TestParseTruth(t *testing.T) {
	tr, err := parseTruth("sim_17_pos4000123_revtrue_err2")
	if err != nil || tr.origin != 4000123 || !tr.rev {
		t.Fatalf("parseTruth = %+v, %v", tr, err)
	}
	for _, bad := range []string{"read1", "sim_1_posx_revtrue_err0", "sim_1_pos5_revmaybe_err0", "sim_1_pos5_err0"} {
		if _, err := parseTruth(bad); err == nil {
			t.Errorf("parseTruth(%q) accepted", bad)
		}
	}
}

func TestChromOfAcrossBoundaries(t *testing.T) {
	lens := []int{100, 50, 200}
	for _, c := range []struct {
		origin, chrom, local int
		ok                   bool
	}{
		{0, 0, 0, true},
		{99, 0, 99, true},   // last base of chr1
		{100, 1, 0, true},   // first base of chr2
		{149, 1, 49, true},  // last base of chr2
		{150, 2, 0, true},   // first base of chr3
		{349, 2, 199, true}, // last base overall
		{350, 0, 0, false},  // past the end
		{-1, 0, 0, false},
	} {
		chrom, local, ok := chromOf(lens, c.origin)
		if ok != c.ok || (ok && (chrom != c.chrom || local != c.local)) {
			t.Errorf("chromOf(%d) = %d, %d, %v; want %d, %d, %v", c.origin, chrom, local, ok, c.chrom, c.local, c.ok)
		}
	}
}

func TestPlacedCorrectly(t *testing.T) {
	names, lens := []string{"chr1", "chr2"}, []int{1000, 1000}
	// Origin 1500 in the concatenation is chr2:500 (0-based), SAM POS 501.
	name := "sim_0_pos1500_revtrue_err0"
	for _, c := range []struct {
		h    samHit
		want bool
	}{
		{samHit{name: name, flag: 16, rname: "chr2", pos: 501, mapped: true}, true},
		{samHit{name: name, flag: 16, rname: "chr2", pos: 511, mapped: true}, true},
		{samHit{name: name, flag: 16, rname: "chr2", pos: 512, mapped: true}, false}, // 11 bp off
		{samHit{name: name, flag: 16, rname: "chr2", pos: 491, mapped: true}, true},
		{samHit{name: name, flag: 0, rname: "chr2", pos: 501, mapped: true}, false},   // wrong strand
		{samHit{name: name, flag: 16, rname: "chr1", pos: 1501, mapped: true}, false}, // concatenated coordinate
		{samHit{name: name, flag: 4, rname: "*", pos: 0}, false},
	} {
		got, err := placedCorrectly(c.h, names, lens, 10)
		if err != nil || got != c.want {
			t.Errorf("placedCorrectly(%+v) = %v, %v; want %v", c.h, got, err, c.want)
		}
	}
}

func TestOpenLoopLateness(t *testing.T) {
	// Due at 100 ms, sent 5 ms late, answered 2 ms after sending: the
	// latency counts the generator's 5 ms delay as well.
	s := openSample{due: 100 * time.Millisecond, sent: 105 * time.Millisecond, done: 107 * time.Millisecond, ok: true}
	if s.latency() != 7 || s.lateness() != 5 {
		t.Errorf("latency %g, lateness %g; want 7, 5", s.latency(), s.lateness())
	}
	s.ok = false
	if !math.IsInf(s.latency(), 1) {
		t.Error("a miss has a finite latency")
	}
}

func TestPoissonSchedule(t *testing.T) {
	a, b := poissonSchedule(50, 5000, 7), poissonSchedule(50, 5000, 7)
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("schedule not reproducible or not increasing at %d", i)
		}
	}
	// 5000 arrivals at 50/s take about 100 s.
	if got := a[len(a)-1].Seconds(); got < 95 || got > 105 {
		t.Errorf("5000 arrivals at 50/s end at %.1f s", got)
	}
	if c := poissonSchedule(50, 5000, 8); c[10] == a[10] {
		t.Error("schedule ignores its seed")
	}
}

func TestSubtractions(t *testing.T) {
	if got := unattributed(10, 1.5, 2, 3, 0.5); got != 3 {
		t.Errorf("unattributed(10, 1.5, 2, 3, 0.5) = %g, want 3", got)
	}
	if got := unattributed(4, 1, 3.5); got != -0.5 {
		t.Errorf("unattributed(4, 1, 3.5) = %g, want -0.5: a replay slower than the tool shows", got)
	}
	if got := overhead(5.25, 3.5); got != 1.75 {
		t.Errorf("overhead(5.25, 3.5) = %g, want 1.75", got)
	}
}

// TestCatalogCoversBenchmarkJSON checks that metrics.json describes
// every metric BENCHMARK.json names, in the same order, and gives each
// per-layer metric the end-to-end metric and workload it should move.
func TestCatalogCoversBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, What, Moves string }
	var cat struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
		Side     []entry `json:"side"`
	}
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	covers := func(kind string, defs []metricDef, entries []entry) {
		if len(defs) != len(entries) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.json %d", kind, len(defs), len(entries))
		}
		for i, d := range defs {
			e := entries[i]
			if d.Name != e.Name {
				t.Errorf("%s %d: BENCHMARK.json %q, metrics.json %q", kind, i, d.Name, e.Name)
			}
			if e.What == "" || (kind == "per_layer" && e.Moves == "") {
				t.Errorf("%s %s: metrics.json lacks its description or target", kind, e.Name)
			}
		}
	}
	covers("end_to_end", sp.EndToEnd, cat.EndToEnd)
	covers("per_layer", sp.PerLayer, cat.PerLayer)
	for _, sd := range cat.Side {
		for _, d := range sp.EndToEnd {
			if d.Name == sd.Name {
				t.Errorf("%s is both gated in BENCHMARK.json and reported on the side", sd.Name)
			}
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}
