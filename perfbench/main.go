// Command perfbench is the repository's genome-scale benchmark. It drives
// the real CLIs (casa-align, casa-smem, casa-serve) as child processes on
// a generated 8 Mbp reference and seeded reads, checks their outputs
// against in-process engines, and prints one JSON result line.
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) run the tool once untraced and once with its own wall-clock
// tracing, then time every layer from outside by calling that layer's
// public functions in this process on the same inputs. The metrics it
// prints are those BENCHMARK.json names, read at run time; metrics.json
// describes each, with the end-to-end metric and workload a change to
// its layer should move.
//
// Usage (from the repository root, after building the CLIs into -bin):
//
//	perfbench -workload align-se -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reports from: the
// names and units of the metrics it prints. metrics.json describes each
// of them and gives each per-layer metric's target.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	err = json.Unmarshal(b, &sp)
	return sp, err
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: align-se, smem-casa or serve-fm")
		seed    = flag.Int64("seed", 1, "seed of the simulated reads")
		seconds = flag.Int("seconds", 10, "measurement time of one run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the built CLIs")
		dir     = flag.String("cache", ".bench_build/perfbench", "input cache directory")
		specF   = flag.String("spec", "BENCHMARK.json", "the benchmark description naming the reported metrics")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, w, *seed, float64(*seconds), *traced == 1, *bin, *dir, *specF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(ctx context.Context, w workload, seed int64, seconds float64, traced bool, bin, dir, specPath string) (*result, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return nil, fmt.Errorf("benchmark description: %w", err)
	}
	t0 := time.Now()
	engines := []string{w.engine, "fmindex"}
	if traced {
		engines = []string{"casa", "fmindex", "sharded:casa"}
	}
	c, err := openCache(dir, bin, engines...)
	if err != nil {
		return nil, err
	}
	rs, err := c.makeReads(w, seed)
	if err != nil {
		return nil, err
	}
	inputS := since(t0)
	r := &runner{w: w, c: c, rs: rs, bin: bin, seed: seed, procs: runtime.NumCPU()}
	host := map[string]any{
		"workload": w.name, "seed": seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"index_bytes_per_base": c.perBase, "input_build_s": inputS,
		"reference_bases": c.ref.bases, "reads": len(rs.seqs),
	}
	if b, err := json.Marshal(map[string]any{"host": host}); err == nil {
		fmt.Println(string(b))
	}

	// A traced run times the tool once untraced; the rest of its time
	// goes to the traced tool run and the layer replays.
	p := plan{setups: setupRuns, fullRuns: fullRuns, seconds: seconds}
	if w.tool == "casa-serve" {
		// The closed loop takes about a third; the open loop the rest.
		p.fullRuns, p.seconds, p.openSeconds = closedPasses, seconds*0.3, seconds*0.7
	}
	if traced {
		p = plan{setups: setupRuns, fullRuns: 1}
	}
	var m e2e
	if w.tool == "casa-serve" {
		r.runServeWorkload(ctx, &m, p)
	} else {
		r.runCLIWorkload(ctx, &m, p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := r.check(&m)
	if err != nil {
		return nil, err
	}
	e2eVals, err := m.metrics(w, len(rs.seqs), v.correctShare)
	if err != nil {
		return nil, err
	}
	vals := e2eVals
	defs := sp.EndToEnd
	if traced {
		if vals, err = r.layers(ctx, &m, e2eVals, v); err != nil {
			return nil, err
		}
		defs = sp.PerLayer
	}
	sd := m.side(v, inputS)
	report(sp, w, &m, v, e2eVals, sd)
	if b, err := json.Marshal(map[string]any{"side": sd}); err == nil {
		fmt.Println(string(b))
	}
	res := &result{
		Correct:   len(v.failures) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		x, ok := vals[d.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: x, Unit: d.Unit}
	}
	return res, nil
}

// side is what a run reports beside its result line, on its own stdout
// line and on stderr: the latency p99, whose run-to-run spread on a
// shared 2-CPU host (up to 0.4 over ten seeds) is wider than any bound a
// gate may use, the open-loop phase, and the counts behind the checks. A
// percentile with fewer than ten samples beyond it, or that lands on a
// miss, is -1.
type side struct {
	LatencyP99MS      float64         `json:"latency_p99_ms"`
	LatencySamples    int             `json:"latency_samples"`
	SMEMMismatchReads int             `json:"smem_mismatch_reads"`
	ErrorShare        float64         `json:"error_share"`
	SetupSigtermExits int             `json:"setup_sigterm_exits"`
	InputBuildS       float64         `json:"input_build_s"`
	OpenLoop          *openLoopResult `json:"open_loop,omitempty"`
}

// openLoopResult summarizes serve-fm's open-loop phase.
type openLoopResult struct {
	RatePerS      float64 `json:"rate_per_s"`
	Samples       int     `json:"samples"`
	Misses        int     `json:"misses"`
	P50MS         float64 `json:"latency_p50_ms"`
	P99MS         float64 `json:"latency_p99_ms"`
	LatenessP99MS float64 `json:"lateness_p99_ms"`
}

func pctOrNone(xs []float64, p float64) float64 {
	if v, ok := percentile(xs, p); ok {
		return v
	}
	return -1
}

func (m *e2e) side(v verdict, inputS float64) side {
	sd := side{
		LatencyP99MS:      pctOrNone(m.latencyMS, 0.99),
		LatencySamples:    len(m.latencyMS),
		SMEMMismatchReads: v.mismatchReads,
		ErrorShare:        m.errorShare(),
		SetupSigtermExits: m.setupSigterms,
		InputBuildS:       inputS,
	}
	if len(m.openMS) > 0 {
		ol := &openLoopResult{RatePerS: openRate, Samples: len(m.openMS),
			P50MS: pctOrNone(m.openMS, 0.5), P99MS: pctOrNone(m.openMS, 0.99), LatenessP99MS: pctOrNone(m.latenessMS, 0.99)}
		for _, x := range m.openMS {
			if math.IsInf(x, 1) {
				ol.Misses++
			}
		}
		sd.OpenLoop = ol
	}
	return sd
}

// report prints the run's summary on stderr: every end-to-end metric
// with its unit, the side values, and any failed check or operation.
func report(sp spec, w workload, m *e2e, v verdict, vals map[string]float64, sd side) {
	fmt.Fprintf(os.Stderr, "%s: %d operations, %d failed\n", w.name, m.attempted, m.failed)
	for _, d := range sp.EndToEnd {
		fmt.Fprintf(os.Stderr, "  %-20s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-20s %14.6g ms (not gated; %d samples)\n", "latency_p99_ms", sd.LatencyP99MS, sd.LatencySamples)
	fmt.Fprintf(os.Stderr, "  %-20s %14d reads\n", "smem_mismatch_reads", sd.SMEMMismatchReads)
	fmt.Fprintf(os.Stderr, "  %-20s %14.6g share\n", "error_share", sd.ErrorShare)
	fmt.Fprintf(os.Stderr, "  %-20s %14.6g s (not part of setup_s)\n", "input_build_s", sd.InputBuildS)
	if w.tool == "casa-serve" {
		fmt.Fprintf(os.Stderr, "  %-20s %14d servers (set-up only; died of SIGTERM before installing its handler)\n", "setup_sigterm_exits", sd.SetupSigtermExits)
	}
	if ol := sd.OpenLoop; ol != nil {
		fmt.Fprintf(os.Stderr, "  open loop at %g requests/s: %d samples, %d misses, p50 %.4g ms, p99 %.4g ms, generator lateness p99 %.4g ms\n",
			ol.RatePerS, ol.Samples, ol.Misses, ol.P50MS, ol.P99MS, ol.LatenessP99MS)
	}
	errs := append(append([]string(nil), v.failures...), m.errors...)
	sort.Strings(errs)
	for i, e := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "  ... %d more\n", len(errs)-5)
			break
		}
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", strings.TrimSpace(e))
	}
}
