package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casa/internal/buildinfo"
	"casa/internal/engine"
)

func benchDoc(rows ...row) doc {
	return doc{
		Schema:   benchSchema,
		Scale:    "quick",
		Workload: workload{RefBases: 1 << 16, Reads: 200, ReadLen: 150, MinSMEM: 19},
		Engines:  rows,
	}
}

func TestCompareDocs(t *testing.T) {
	base := benchDoc(
		row{Engine: "casa", Workers: 1, HostSeconds: 1, ModelSeconds: 0.010, ModelCycles: 1000, ModelReadsPerS: 20000},
		row{Engine: "ert", Workers: 1, HostSeconds: 1, ModelSeconds: 0.020, ModelReadsPerS: 10000},
		row{Engine: "fmindex", Workers: 1, HostSeconds: 1},
	)

	t.Run("identical passes", func(t *testing.T) {
		regs, err := compareDocs(base, base, 0.10)
		if err != nil || len(regs) != 0 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
	})

	t.Run("within threshold passes", func(t *testing.T) {
		cur := benchDoc(
			row{Engine: "casa", Workers: 1, HostSeconds: 9, ModelSeconds: 0.0108, ModelCycles: 1080, ModelReadsPerS: 18200},
			row{Engine: "ert", Workers: 1, HostSeconds: 9, ModelSeconds: 0.021, ModelReadsPerS: 9500},
			row{Engine: "fmindex", Workers: 1, HostSeconds: 9},
		)
		regs, err := compareDocs(base, cur, 0.10)
		if err != nil || len(regs) != 0 {
			t.Fatalf("regs=%v err=%v", regs, err)
		}
	})

	t.Run("regressions caught", func(t *testing.T) {
		cur := benchDoc(
			row{Engine: "casa", Workers: 1, HostSeconds: 1, ModelSeconds: 0.012, ModelCycles: 1200, ModelReadsPerS: 17000},
			row{Engine: "ert", Workers: 1, HostSeconds: 1, ModelSeconds: 0.020, ModelReadsPerS: 10000},
			row{Engine: "fmindex", Workers: 1, HostSeconds: 1},
		)
		regs, err := compareDocs(base, cur, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 3 {
			t.Fatalf("want 3 regressions (seconds, cycles, throughput), got %v", regs)
		}
		for _, r := range regs {
			if !strings.HasPrefix(r, "casa:") {
				t.Errorf("regression blames %q, want casa", r)
			}
		}
	})

	t.Run("missing engine is a regression", func(t *testing.T) {
		cur := benchDoc(
			row{Engine: "casa", Workers: 1, HostSeconds: 1, ModelSeconds: 0.010, ModelCycles: 1000, ModelReadsPerS: 20000},
			row{Engine: "fmindex", Workers: 1, HostSeconds: 1},
		)
		regs, err := compareDocs(base, cur, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "ert") {
			t.Fatalf("regs=%v", regs)
		}
	})

	t.Run("host-only drift ignored", func(t *testing.T) {
		cur := benchDoc(
			row{Engine: "casa", Workers: 1, HostSeconds: 100, HostReadsPerS: 2, ModelSeconds: 0.010, ModelCycles: 1000, ModelReadsPerS: 20000},
			row{Engine: "ert", Workers: 1, HostSeconds: 100, ModelSeconds: 0.020, ModelReadsPerS: 10000},
			row{Engine: "fmindex", Workers: 1, HostSeconds: 100},
		)
		regs, err := compareDocs(base, cur, 0.10)
		if err != nil || len(regs) != 0 {
			t.Fatalf("host drift must not gate: regs=%v err=%v", regs, err)
		}
	})

	t.Run("host environment differences ignored", func(t *testing.T) {
		// A baseline captured on another machine (or before host capture
		// existed, Host == nil) must gate purely on model numbers.
		withHost := base
		withHost.Host = &hostEnv{GoVersion: "go1.22", GOOS: "linux", GOARCH: "arm64", NumCPU: 4, GOMAXPROCS: 4}
		cur := base
		cur.Host = currentHostEnv()
		regs, err := compareDocs(withHost, cur, 0.10)
		if err != nil || len(regs) != 0 {
			t.Fatalf("host env drift must not gate: regs=%v err=%v", regs, err)
		}
		regs, err = compareDocs(base, cur, 0.10) // nil-host baseline
		if err != nil || len(regs) != 0 {
			t.Fatalf("nil-host baseline must not gate: regs=%v err=%v", regs, err)
		}
	})

	t.Run("workload mismatch errors", func(t *testing.T) {
		cur := base
		cur.Workload.Reads = 999
		if _, err := compareDocs(base, cur, 0.10); err == nil {
			t.Fatal("want workload mismatch error")
		}
	})
}

func TestCompareHost(t *testing.T) {
	base := benchDoc(
		row{Engine: "casa", Workers: 1, HostSeconds: 0.001, HostReadsPerS: 200000},
		row{Engine: "casa", Workers: 4, HostSeconds: 0.001, HostReadsPerS: 300000},
		row{Engine: "fmindex", Workers: 1, HostSeconds: 0.002, HostReadsPerS: 80000},
	)

	t.Run("identical passes", func(t *testing.T) {
		if regs := compareHost(base, base, 0.5); len(regs) != 0 {
			t.Fatalf("regs=%v", regs)
		}
	})

	t.Run("mild slowdown passes", func(t *testing.T) {
		cur := benchDoc(
			row{Engine: "casa", Workers: 1, HostReadsPerS: 120000},
			row{Engine: "casa", Workers: 4, HostReadsPerS: 160000},
			row{Engine: "fmindex", Workers: 1, HostReadsPerS: 41000},
		)
		if regs := compareHost(base, cur, 0.5); len(regs) != 0 {
			t.Fatalf("40%% slowdown must pass the 0.5 floor: regs=%v", regs)
		}
	})

	t.Run("collapse caught per row", func(t *testing.T) {
		cur := benchDoc(
			row{Engine: "casa", Workers: 1, HostReadsPerS: 20000}, // 10x collapse
			row{Engine: "casa", Workers: 4, HostReadsPerS: 290000},
			row{Engine: "fmindex", Workers: 1, HostReadsPerS: 79000},
		)
		regs := compareHost(base, cur, 0.5)
		if len(regs) != 1 || !strings.Contains(regs[0], "casa workers=1") {
			t.Fatalf("regs=%v", regs)
		}
	})

	t.Run("missing rows and zero-host baselines skipped", func(t *testing.T) {
		zb := benchDoc(row{Engine: "legacy", Workers: 1}) // pre-host baseline row
		cur := benchDoc(row{Engine: "casa", Workers: 1, HostReadsPerS: 1})
		if regs := compareHost(zb, cur, 0.5); len(regs) != 0 {
			t.Fatalf("regs=%v", regs)
		}
	})

	t.Run("non-positive floor disables", func(t *testing.T) {
		cur := benchDoc(row{Engine: "casa", Workers: 1, HostReadsPerS: 1})
		if regs := compareHost(base, cur, 0); len(regs) != 0 {
			t.Fatalf("regs=%v", regs)
		}
	})
}

// TestHostBlockRoundTrip pins the host-side observability fields: a
// document carrying build info, phase breakdown and per-rep timings still
// validates (DisallowUnknownFields must know every field), and none of it
// reaches the comparison gates.
func TestHostBlockRoundTrip(t *testing.T) {
	build := buildinfo.Current()
	// One row per non-Golden registry engine (validateFile requires full
	// coverage, and the roster includes the sharded composites here); the
	// casa row carries the model and per-rep fields under test.
	rows := []row{{Engine: "casa", Workers: 1, HostSeconds: 1, HostReadsPerS: 200,
		HostRepSeconds: []float64{1.2, 1.0, 1.1}, ModelSeconds: 0.01, ModelCycles: 1000, ModelReadsPerS: 20000}}
	for _, f := range engine.List() {
		if f.Golden || f.Name == "casa" {
			continue
		}
		rows = append(rows, row{Engine: f.Name, Workers: 1, HostSeconds: 1, HostReadsPerS: 200})
	}
	d := benchDoc(rows...)
	d.Host = currentHostEnv()
	d.Host.Phases = &hostPhases{
		RefGenSeconds:     0.1,
		ReadSimSeconds:    0.05,
		IndexBuildSeconds: map[string]float64{"casa": 0.2},
		IndexLoadSeconds:  map[string]float64{"casa": 0.01},
		IndexBytesPerBase: map[string]float64{"casa": 4.25},
		SeedingSeconds:    3.3,
	}
	if d.Host.Build == nil || d.Host.Build.GoVersion != build.GoVersion {
		t.Fatalf("host env lacks build info: %+v", d.Host)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateFile(path); err != nil {
		t.Fatalf("document with host phases does not validate: %v", err)
	}
	var back doc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Host.Phases.IndexBytesPerBase["casa"]; got != 4.25 {
		t.Fatalf("index_bytes_per_base round trip: %v", got)
	}

	// A baseline without any of the new host fields gates cleanly against
	// it: host metadata is never compared.
	base := benchDoc(d.Engines...)
	for i := range base.Engines {
		base.Engines[i].HostRepSeconds = nil
	}
	regs, err := compareDocs(base, d, 0.10)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v", regs, err)
	}
	if regs := compareHost(base, d, 0.5); len(regs) != 0 {
		t.Fatalf("host gate tripped on metadata: %v", regs)
	}
}
