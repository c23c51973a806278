package main

import (
	"bufio"
	"fmt"
	"os"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	_ "casa/internal/shard" // registers sharded:casa for LoadIndex
	"casa/internal/smem"
)

// servedCheck is one ?include=smems answer and the offset of its batch's
// first read.
type servedCheck struct {
	lo  int
	rep smemJSON
}

// verdict is the outcome of a run's output checks.
type verdict struct {
	correctShare  float64
	mismatchReads int      // reads whose forward SMEM set differs from in-process fmindex
	failures      []string // failed checks; any makes the run incorrect
}

func (v *verdict) failf(format string, args ...any) {
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

// loadIndex materializes an index file's engine in this process.
func loadIndex(path string) (engine.Engine, idxio.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, idxio.Header{}, err
	}
	defer f.Close()
	return engine.LoadIndex(bufio.NewReaderSize(f, 1<<20))
}

// seedIndex loads an index and returns its engine's forward SMEM sets
// over reads.
func seedIndex(path string, reads []dna.Sequence) ([][]smem.Match, error) {
	eng, _, err := loadIndex(path)
	if err != nil {
		return nil, err
	}
	return eng.SMEMs(batch.SeedEngine(eng, reads, batch.Options{})), nil
}

func countMismatches(got, want [][]smem.Match) int {
	n := 0
	for i := range got {
		if !smem.SameIntervals(got[i], want[i]) {
			n++
		}
	}
	return n
}

// check verifies a run's outputs against in-process results. fmindex is
// the reference engine: the registry conformance suite holds it to the
// brute-force golden. A disagreement with it is a measured value
// (mismatchReads), not a failed check; a tool whose output disagrees
// with the same engine run in process fails the check.
func (r *runner) check(m *e2e) (verdict, error) {
	var v verdict
	switch r.w.tool {
	case "casa-align":
		share, err := r.correctShare(m.hits)
		if err != nil {
			return v, err
		}
		v.correctShare = share
		got, want, err := r.engineAndFM()
		if err != nil {
			return v, err
		}
		v.mismatchReads = countMismatches(got, want)
	case "casa-smem":
		got, want, err := r.engineAndFM()
		if err != nil {
			return v, err
		}
		total := 0
		for _, ms := range got {
			total += len(ms)
		}
		for _, rep := range m.reports {
			if rep.Engine != r.w.engine || rep.SMEMs != total {
				v.failf("%s report: engine %s, %d SMEMs; in process %s finds %d", r.w.tool, rep.Engine, rep.SMEMs, r.w.engine, total)
			}
		}
		v.mismatchReads = countMismatches(got, want)
		v.correctShare = 1 - float64(v.mismatchReads)/float64(len(got))
	case "casa-serve":
		var served []servedCheck
		var reads []dna.Sequence
		for _, s := range m.served {
			if len(s.rep.Results) != s.rep.Reads {
				v.failf("served batch at read %d: %d results for %d reads", s.lo, len(s.rep.Results), s.rep.Reads)
				continue
			}
			served = append(served, s)
			reads = append(reads, r.rs.seqs[s.lo:s.lo+s.rep.Reads]...)
		}
		want, err := seedIndex(r.c.indexPath("fmindex"), reads)
		if err != nil {
			return v, err
		}
		k := 0
		for _, s := range served {
			for i, res := range s.rep.Results {
				if res.Name != r.rs.names[s.lo+i] {
					v.failf("served result %d is %q, want %q", s.lo+i, res.Name, r.rs.names[s.lo+i])
				}
				got := make([]smem.Match, len(res.SMEMs))
				for j, sm := range res.SMEMs {
					got[j] = smem.Match{Start: sm.Start, End: sm.End, Hits: sm.Hits}
				}
				if !smem.SameIntervals(got, want[k]) {
					v.mismatchReads++
				}
				k++
			}
		}
		if k == 0 {
			return v, fmt.Errorf("no ?include=smems sample was answered")
		}
		v.correctShare = 1 - float64(v.mismatchReads)/float64(k)
		if v.mismatchReads > 0 {
			v.failf("casa-serve fmindex disagrees with in-process fmindex on %d of %d sampled reads", v.mismatchReads, k)
		}
	}
	return v, nil
}

// engineAndFM returns the forward SMEM sets of the run's reads from the
// workload's engine and from fmindex, both run in process.
func (r *runner) engineAndFM() (got, want [][]smem.Match, err error) {
	if got, err = seedIndex(r.c.indexPath(r.w.engine), r.rs.seqs); err != nil {
		return nil, nil, err
	}
	want, err = seedIndex(r.c.indexPath("fmindex"), r.rs.seqs)
	return got, want, err
}
