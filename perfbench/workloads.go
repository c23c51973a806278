package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input and the CLI it drives.
type workload struct {
	name    string
	tool    string // casa-align, casa-smem or casa-serve
	engine  string // the index the tool loads
	reads   int
	errRate float64 // per-base sequencing error rate of the reads
}

var workloads = []workload{
	{name: "align-se", tool: "casa-align", engine: "casa", reads: 40_000, errRate: 0.001},
	{name: "smem-casa", tool: "casa-smem", engine: "casa", reads: 100_000, errRate: 0.02},
	{name: "serve-fm", tool: "casa-serve", engine: "fmindex", reads: 100_000, errRate: 0.001},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRuns is how many times a run times set-up; setup_s is the median.
const setupRuns = 6

// e2e is one run's end-to-end measurements of a workload.
type e2e struct {
	setup      []float64 // seconds per set-up (one-read run, or start to /healthz)
	wall       []float64 // seconds per full-input run (serve: per closed-loop pass)
	rssMB      []float64
	latencyMS  []float64 // per read (CLIs) or per closed-loop request (serve); +Inf = miss
	openMS     []float64 // serve open loop: latency from the due time; +Inf = miss
	latenessMS []float64 // serve open loop: send time minus due time

	attempted, failed int
	errors            []string
	setupSigterms     int // set-up-only servers that died of SIGTERM (see server.stop)

	hits    []samHit   // align: the last full run's SAM records
	reports []smemJSON // smem: every full run's report
	served  []servedCheck
}

func (m *e2e) fail(err error) {
	m.failed++
	m.errors = append(m.errors, err.Error())
}

// smemJSON is the part of a casa-smem/v1 report the checks read.
type smemJSON struct {
	Schema  string `json:"schema"`
	Engine  string `json:"engine"`
	Reads   int    `json:"reads"`
	SMEMs   int    `json:"smems"`
	Results []struct {
		Name  string `json:"name"`
		SMEMs []struct {
			Start int `json:"start"`
			End   int `json:"end"`
			Hits  int `json:"hits"`
		} `json:"smems"`
	} `json:"results"`
}

// runner drives one workload's tool.
type runner struct {
	w     workload
	c     *cache
	rs    *readSet
	bin   string
	seed  int64
	procs int
}

func (r *runner) tool() string { return filepath.Join(r.bin, r.w.tool) }

// cliArgs are the tool's arguments for one FASTQ.
func (r *runner) cliArgs(reads, wallTrace string) []string {
	idx := r.c.indexPath(r.w.engine)
	var args []string
	if r.w.tool == "casa-align" {
		args = []string{"-ref", r.c.refPath, "-index", idx, "-reads", reads, "-out", "-"}
	} else {
		args = []string{"-index", idx, "-reads", reads, "-max-reads", "0", "-json"}
	}
	if wallTrace != "" {
		args = append(args, "-walltrace", wallTrace)
	}
	return args
}

// plan is how much one pass over a workload measures.
type plan struct {
	setups      int     // set-up timings (serve: server starts)
	fullRuns    int     // CLIs: full-input runs at least (serve: closed-loop passes)
	seconds     float64 // measure full runs / closed-loop passes for at least this long
	openSeconds float64 // serve: length of the open-loop latency phase; 0 = none
	toolTrace   string  // the tool's own wall-clock trace file; "" = tracing off
}

// fullRuns is how many full-input runs a CLI run makes at least, and
// closedPasses how many closed-loop passes a serve run makes at least, so
// the p99 beside the result has more than ten samples beyond it; wall_s
// is their median.
const (
	fullRuns     = 2
	closedPasses = 3
)

// runCLIWorkload times set-up on a one-read input, then runs the full
// input fullRuns times and more until p.seconds have passed.
func (r *runner) runCLIWorkload(ctx context.Context, m *e2e, p plan) {
	for i := 0; i < p.setups && ctx.Err() == nil; i++ {
		m.attempted++
		pr, err := runCLI(ctx, r.tool(), r.cliArgs(r.rs.onePath, ""), r.consume(m, 1, false))
		if err != nil {
			m.fail(fmt.Errorf("set-up run: %w", err))
			continue
		}
		m.setup = append(m.setup, pr.wall)
	}
	start := time.Now()
	for i := 0; (i < p.fullRuns || since(start) < p.seconds) && ctx.Err() == nil; i++ {
		m.attempted++
		pr, err := runCLI(ctx, r.tool(), r.cliArgs(r.rs.path, p.toolTrace), r.consume(m, len(r.rs.seqs), true))
		if err != nil {
			m.fail(err)
			continue
		}
		m.wall = append(m.wall, pr.wall)
		m.rssMB = append(m.rssMB, pr.rssMB)
	}
}

// consume returns the stdout reader of one CLI run over n reads. It
// checks the output's shape and, for full runs, records per-read time to
// result: the arrival of each SAM record, or of the casa-smem report.
func (r *runner) consume(m *e2e, n int, full bool) func(time.Time, io.Reader) error {
	if r.w.tool == "casa-align" {
		return func(start time.Time, out io.Reader) error {
			hits, lat, err := readSAM(start, out)
			if err != nil {
				return err
			}
			if len(hits) != n {
				return fmt.Errorf("casa-align wrote %d SAM records for %d reads", len(hits), n)
			}
			for i, h := range hits {
				if h.name != r.rs.names[i] {
					return fmt.Errorf("SAM record %d is %q, want %q", i, h.name, r.rs.names[i])
				}
			}
			if full {
				m.hits = hits
				m.latencyMS = append(m.latencyMS, lat...)
			}
			return nil
		}
	}
	return func(start time.Time, out io.Reader) error {
		b, err := io.ReadAll(out)
		if err != nil {
			return err
		}
		at := ms(time.Since(start))
		var rep smemJSON
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("casa-smem report: %w", err)
		}
		if rep.Reads != n {
			return fmt.Errorf("casa-smem reported %d reads for %d", rep.Reads, n)
		}
		if full {
			m.reports = append(m.reports, rep)
			for i := 0; i < n; i++ {
				m.latencyMS = append(m.latencyMS, at)
			}
		}
		return nil
	}
}

// readSAM parses SAM text, timing each record's arrival.
func readSAM(start time.Time, out io.Reader) ([]samHit, []float64, error) {
	var hits []samHit
	var lat []float64
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		f := bytes.SplitN(line, []byte{'\t'}, 5)
		if len(f) < 5 {
			return nil, nil, fmt.Errorf("short SAM record %q", line)
		}
		flag, err1 := strconv.Atoi(string(f[1]))
		pos, err2 := strconv.Atoi(string(f[3]))
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("bad SAM record %q", line)
		}
		hits = append(hits, samHit{name: string(f[0]), flag: flag, rname: string(f[2]), pos: pos, mapped: flag&0x4 == 0})
		lat = append(lat, ms(time.Since(start)))
	}
	return hits, lat, sc.Err()
}

// correctShare is the share of reads casa-align placed on their true
// chromosome and strand within 10 bases of the true origin.
func (r *runner) correctShare(hits []samHit) (float64, error) {
	good := 0
	for _, h := range hits {
		ok, err := placedCorrectly(h, r.c.ref.names, r.c.ref.lens, 10)
		if err != nil {
			return 0, err
		}
		if ok {
			good++
		}
	}
	return float64(good) / float64(len(hits)), nil
}

// metrics turns a run's measurements into the end-to-end metric set. A
// latency median without enough samples beyond it is left out.
func (m *e2e) metrics(w workload, reads int, correct float64) (map[string]float64, error) {
	if len(m.setup) == 0 || len(m.wall) == 0 {
		return nil, fmt.Errorf("no successful runs: %s", strings.Join(m.errors, "; "))
	}
	setup, wall := median(m.setup), median(m.wall)
	work := wall - setup
	if w.tool == "casa-serve" {
		work = wall // a closed-loop pass starts after the server is up
	}
	vals := map[string]float64{
		"setup_s":       setup,
		"wall_s":        wall,
		"reads_per_s":   float64(reads) / work,
		"peak_rss_mb":   median(m.rssMB),
		"correct_share": correct,
	}
	if v, ok := percentile(m.latencyMS, 0.50); ok {
		vals["latency_p50_ms"] = v
	}
	return vals, nil
}

// errorShare is failed operations over attempted ones.
func (m *e2e) errorShare() float64 {
	if m.attempted == 0 {
		return math.NaN()
	}
	return float64(m.failed) / float64(m.attempted)
}
