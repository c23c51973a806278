// Command casa-bench runs the cross-engine batch-seeding benchmark and
// writes a machine-readable BENCH_seeding.json (schema casa-bench/v1):
// for every engine and worker-pool size, the host wall-clock throughput
// of the simulation plus the engine's modelled seconds, cycles and
// throughput. `make bench` drives it; CI runs `-scale quick` and then
// `-validate` to keep the schema honest.
//
// -compare is the regression gate: the run's (or a given file's) model
// numbers are checked against a committed baseline and the process exits
// non-zero when modelled seconds, cycles or throughput regress beyond
// -threshold. Host throughput gets its own, much more generous floor
// (-host-threshold, default 0.5): the run fails only when an engine's
// host reads/s drop below half the baseline's, loose enough for CI-runner
// noise but tight enough to catch an accidental 10× host-path regression.
// `make bench-quick` gates against bench/baseline-quick.json.
//
// Each host measurement is the best of -reps runs (default 3): the first
// pass pays cold caches and scratch-buffer growth, so a single-shot
// timing of a millisecond-scale workload underestimates steady-state
// throughput by 2× or more. Model numbers are identical on every run
// (the determinism contract), so reps do not affect them.
//
// Usage:
//
//	casa-bench [-scale quick|default] [-workers 1,2,4,8] [-reps 3] [-out BENCH_seeding.json]
//	casa-bench -validate BENCH_seeding.json
//	casa-bench -compare bench/baseline-quick.json [-threshold 0.10] [-host-threshold 0.5] BENCH_seeding.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"casa/internal/batch"
	"casa/internal/buildinfo"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	_ "casa/internal/shard" // registers the sharded:<name> composites
)

// benchSchema identifies the document layout.
const benchSchema = "casa-bench/v1"

type workload struct {
	RefBases int `json:"ref_bases"`
	Reads    int `json:"reads"`
	ReadLen  int `json:"read_len"`
	MinSMEM  int `json:"min_smem"`
}

// row is one engine × worker-count measurement. Host numbers measure the
// simulator on this machine; model numbers are the simulated hardware's
// and are identical at every worker count (the determinism contract).
type row struct {
	Engine        string  `json:"engine"`
	Workers       int     `json:"workers"`
	HostSeconds   float64 `json:"host_seconds"`
	HostReadsPerS float64 `json:"host_reads_per_s"`
	// HostRepSeconds lists every repetition's wall time (HostSeconds is
	// their minimum): the spread shows whether the machine was quiet
	// enough to trust the row. Host-side, so -compare never reads it.
	HostRepSeconds []float64 `json:"host_rep_seconds,omitempty"`
	ModelSeconds   float64   `json:"model_seconds,omitempty"`
	ModelCycles    int64     `json:"model_cycles,omitempty"`
	ModelReadsPerS float64   `json:"model_reads_per_s,omitempty"`
}

// hostPhases breaks the benchmark's one-time host costs out of the
// per-row seeding timings: generating the reference, simulating the
// reads, and building each engine's index. Like every host field,
// -compare ignores it.
type hostPhases struct {
	RefGenSeconds     float64            `json:"ref_gen_seconds"`
	ReadSimSeconds    float64            `json:"read_sim_seconds"`
	IndexBuildSeconds map[string]float64 `json:"index_build_seconds"` // engine -> build wall time
	// IndexLoadSeconds times engine.LoadIndex over an in-memory
	// casa-idx/v1 serialization of each freshly built index — the
	// load-instead-of-rebuild path casa-smem -index and casa-serve -index
	// take. Only persisting engines appear.
	IndexLoadSeconds map[string]float64 `json:"index_load_seconds"`
	// IndexBytesPerBase is each persisting engine's serialized container
	// size per reference base (the bytes IndexLoadSeconds decodes).
	IndexBytesPerBase map[string]float64 `json:"index_bytes_per_base,omitempty"`
	SeedingSeconds    float64            `json:"seeding_seconds"` // all reps, all rows
}

// hostEnv records the machine a benchmark ran on. Host throughput is
// meaningless without it; the model numbers stay machine-independent, so
// -compare ignores every host field.
type hostEnv struct {
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Build      *buildinfo.Info `json:"build_info,omitempty"`
	Phases     *hostPhases     `json:"phases,omitempty"`
}

// currentHostEnv captures the running process's environment.
func currentHostEnv() *hostEnv {
	build := buildinfo.Current()
	return &hostEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Build:      &build,
	}
}

type doc struct {
	Schema   string   `json:"schema"`
	Scale    string   `json:"scale"`
	Host     *hostEnv `json:"host,omitempty"` // absent in pre-host documents; never compared
	Workload workload `json:"workload"`
	Engines  []row    `json:"engines"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("casa-bench: ")
	var (
		scale         = flag.String("scale", "default", "workload scale: quick (CI smoke) or default")
		workers       = flag.String("workers", "1,2,4,8", "comma-separated worker-pool sizes")
		reps          = flag.Int("reps", 3, "measurement repetitions per engine/worker row; host numbers are best-of-reps")
		out           = flag.String("out", "BENCH_seeding.json", "output path (- = stdout)")
		validate      = flag.String("validate", "", "validate an existing benchmark file against the schema and exit")
		compare       = flag.String("compare", "", "baseline benchmark file: exit non-zero if model numbers regress beyond -threshold")
		threshold     = flag.Float64("threshold", 0.10, "allowed fractional model regression for -compare")
		hostThreshold = flag.Float64("host-threshold", 0.5, "host-throughput floor for -compare: fail below this fraction of baseline host reads/s (0 disables)")
		version       = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "casa-bench")
		return
	}
	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("casa-bench: %s is a valid %s document\n", *validate, benchSchema)
		return
	}
	if *compare != "" && flag.NArg() == 1 {
		// Gate an already-written document without re-running the bench.
		cur, err := loadDoc(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		runGate(*compare, cur, *threshold, *hostThreshold)
		return
	}

	ws, err := parseWorkers(*workers)
	if err != nil {
		log.Fatal(err)
	}
	if *reps < 1 {
		log.Fatal("-reps must be at least 1")
	}
	d := runBench(*scale, ws, *reps)

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		log.Fatal(err)
	}
	if *out != "-" {
		log.Printf("wrote %s (%d rows)", *out, len(d.Engines))
	}
	if *compare != "" {
		runGate(*compare, d, *threshold, *hostThreshold)
	}
}

// runBench measures every registered engine at every worker count over
// the named workload scale. The host timing of each row is the fastest
// of reps runs; model numbers come from the last run and are identical
// on every repetition.
func runBench(scale string, ws []int, reps int) doc {
	refBases, nReads := 1<<17, 1000
	if scale == "quick" {
		refBases, nReads = 1<<16, 200
	}
	phases := &hostPhases{
		IndexBuildSeconds: map[string]float64{},
		IndexLoadSeconds:  map[string]float64{},
		IndexBytesPerBase: map[string]float64{},
	}
	refStart := time.Now()
	ref := readsim.GenerateReference(readsim.DefaultGenome(refBases, 21))
	phases.RefGenSeconds = time.Since(refStart).Seconds()
	simStart := time.Now()
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(nReads, 22)))
	phases.ReadSimSeconds = time.Since(simStart).Seconds()
	const minSMEM = 19
	d := doc{
		Schema: benchSchema,
		Scale:  scale,
		Host:   currentHostEnv(),
		Workload: workload{
			RefBases: len(ref), Reads: len(reads), ReadLen: len(reads[0]), MinSMEM: minSMEM,
		},
	}
	d.Host.Phases = phases

	seedStart := time.Now()
	for _, e := range buildEngines(ref, minSMEM, phases) {
		for _, w := range ws {
			opts := batch.Options{Workers: w}
			var m model
			repSecs := make([]float64, 0, reps)
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				m = e.run(reads, opts)
				repSecs = append(repSecs, time.Since(start).Seconds())
			}
			host := repSecs[0]
			for _, s := range repSecs[1:] {
				if s < host {
					host = s
				}
			}
			r := row{Engine: e.name, Workers: w, HostSeconds: host, HostRepSeconds: repSecs}
			if host > 0 {
				r.HostReadsPerS = float64(len(reads)) / host
			}
			r.ModelSeconds, r.ModelCycles, r.ModelReadsPerS = m.seconds, m.cycles, m.throughput
			d.Engines = append(d.Engines, r)
			log.Printf("%-8s workers=%d host=%.3fs (%.0f reads/s)", e.name, w, host, r.HostReadsPerS)
		}
	}
	phases.SeedingSeconds = time.Since(seedStart).Seconds()
	log.Printf("host phases: ref_gen=%.3fs read_sim=%.3fs index_build=%.3fs index_load=%.3fs seeding=%.3fs",
		phases.RefGenSeconds, phases.ReadSimSeconds, sumValues(phases.IndexBuildSeconds),
		sumValues(phases.IndexLoadSeconds), phases.SeedingSeconds)
	return d
}

// sumValues totals a per-engine timing map.
func sumValues(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

// runGate compares cur against the baseline file and exits non-zero on
// any model regression or host-throughput collapse.
func runGate(baselinePath string, cur doc, threshold, hostThreshold float64) {
	base, err := loadDoc(baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	regressions, err := compareDocs(base, cur, threshold)
	if err != nil {
		log.Fatal(err)
	}
	regressions = append(regressions, compareHost(base, cur, hostThreshold)...)
	if len(regressions) > 0 {
		for _, r := range regressions {
			log.Printf("REGRESSION %s", r)
		}
		log.Fatalf("%d regression(s) vs %s (model threshold %.0f%%, host floor %.0f%%)",
			len(regressions), baselinePath, threshold*100, hostThreshold*100)
	}
	log.Printf("model numbers within %.0f%% of %s; host throughput above %.0f%% floor",
		threshold*100, baselinePath, hostThreshold*100)
}

// model carries the simulated-hardware outputs of one run; zero for
// engines with no hardware model (fmindex).
type model struct {
	seconds    float64
	cycles     int64
	throughput float64
}

// benchEngine is one registry engine prepared for measurement.
type benchEngine struct {
	name string
	run  func(reads []dna.Sequence, o batch.Options) model
}

// buildEngines constructs every registered engine over ref, scaled to
// bench size (small segments so multi-partition paths are exercised,
// table k-mers kept small enough for CI memory), recording each engine's
// index-build wall time into phases. For persisting engines it also
// times engine.LoadIndex over an in-memory casa-idx/v1 serialization —
// the build-vs-load ratio is what justifies shipping index files at all —
// and records that serialization's bytes per reference base.
// The golden oracle is skipped — quadratic, validation only — so a newly
// registered engine is benchmarked automatically.
func buildEngines(ref dna.Sequence, minSMEM int, phases *hostPhases) []benchEngine {
	opt := engine.Options{
		MinSMEM:    minSMEM,
		Partition:  len(ref) / 4,
		TableK:     8,
		CacheBytes: 1 << 14,
	}
	var out []benchEngine
	for _, f := range engine.List() {
		if f.Golden {
			continue
		}
		buildStart := time.Now()
		e, err := engine.New(f.Name, ref, opt)
		if err != nil {
			log.Fatal(err)
		}
		phases.IndexBuildSeconds[f.Name] = time.Since(buildStart).Seconds()
		if f.NewEmpty != nil {
			var buf bytes.Buffer
			if err := engine.SaveIndex(&buf, e, opt, nil); err != nil {
				log.Fatal(err)
			}
			loadStart := time.Now()
			if _, _, err := engine.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
				log.Fatal(err)
			}
			phases.IndexLoadSeconds[f.Name] = time.Since(loadStart).Seconds()
			phases.IndexBytesPerBase[f.Name] = float64(buf.Len()) / float64(len(ref))
		}
		out = append(out, benchEngine{f.Name, func(reads []dna.Sequence, o batch.Options) model {
			res := batch.SeedEngine(e, reads, o)
			if mod, ok := e.(engine.Modeler); ok {
				m := mod.Model(res)
				return model{m.Seconds, m.Cycles, m.ReadsPerS}
			}
			return model{}
		}})
	}
	return out
}

func parseWorkers(s string) ([]int, error) {
	var ws []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("casa-bench: bad -workers entry %q", f)
		}
		ws = append(ws, n)
	}
	return ws, nil
}

// validateFile checks that path holds a well-formed casa-bench/v1
// document: the right schema tag, a plausible workload, and positive
// host measurements for every engine row.
func validateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d doc
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("casa-bench: %s: %w", path, err)
	}
	if d.Schema != benchSchema {
		return fmt.Errorf("casa-bench: %s: schema %q, want %q", path, d.Schema, benchSchema)
	}
	if d.Workload.RefBases <= 0 || d.Workload.Reads <= 0 || d.Workload.ReadLen <= 0 {
		return fmt.Errorf("casa-bench: %s: implausible workload %+v", path, d.Workload)
	}
	if len(d.Engines) == 0 {
		return fmt.Errorf("casa-bench: %s: no engine rows", path)
	}
	seen := map[string]bool{}
	for i, r := range d.Engines {
		if r.Engine == "" || r.Workers < 1 {
			return fmt.Errorf("casa-bench: %s: row %d malformed: %+v", path, i, r)
		}
		if r.HostSeconds <= 0 || r.HostReadsPerS <= 0 {
			return fmt.Errorf("casa-bench: %s: row %d (%s workers=%d) has no host measurement", path, i, r.Engine, r.Workers)
		}
		seen[r.Engine] = true
	}
	for _, f := range engine.List() {
		if f.Golden {
			continue
		}
		if !seen[f.Name] {
			return fmt.Errorf("casa-bench: %s: engine %q missing", path, f.Name)
		}
	}
	return nil
}
