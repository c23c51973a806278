package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"casa/internal/cli/clitest"
	"casa/internal/dna"
	"casa/internal/seqio"
	"casa/internal/trace"
)

func TestConflictMatrix(t *testing.T) {
	clitest.ConflictMatrix(t, context.Background(), "casa-align", run)
}

// TestOneRecordPerRead: single-end alignment writes exactly one SAM
// record per read, in input order.
func TestOneRecordPerRead(t *testing.T) {
	f := clitest.NewFixture(t)
	if code, _, stderr := f.Run(context.Background(), run, "-ref $REF -reads $READS -out $OUT"); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	sam, err := os.ReadFile(filepath.Join(f.Dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(sam)), "\n") {
		if !strings.HasPrefix(line, "@") {
			names = append(names, strings.SplitN(line, "\t", 2)[0])
		}
	}
	if len(names) != f.NReads {
		t.Fatalf("%d SAM records, want %d", len(names), f.NReads)
	}
	for i, name := range names {
		if want := "r" + strconv.Itoa(i); name != want {
			t.Fatalf("record %d is %s, want %s", i, name, want)
		}
	}
}

// writePairs writes n FR read pairs of 70 bp drawn from the fixture's
// reference (inserts of 150-400 bp) and returns the two mate files. Most
// mates carry a few substitutions; every seventh mate 2 is mutated so
// that only mate rescue can place it, and every eleventh is random.
func writePairs(t *testing.T, f *clitest.Fixture, n int) (string, string) {
	t.Helper()
	in, err := os.Open(f.Ref)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	chroms, err := seqio.ReadFasta(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mutate := func(s dna.Sequence, rate float64) dna.Sequence {
		s = s.Clone()
		for i := range s {
			if rng.Float64() < rate {
				s[i] = dna.Base(rng.Intn(4))
			}
		}
		return s
	}
	const readLen = 70
	var m1, m2 []seqio.Record
	for i := 0; i < n; i++ {
		c := chroms[rng.Intn(len(chroms))].Seq
		insert := 150 + rng.Intn(250)
		at := rng.Intn(len(c) - insert)
		r1 := mutate(c[at:at+readLen], 0.02)
		r2 := mutate(c[at+insert-readLen:at+insert].ReverseComplement(), 0.02)
		switch {
		case i%11 == 0:
			r2 = mutate(r2, 1)
		case i%7 == 0:
			// A substitution every 12 bases leaves no 19-mer to seed
			// from, but still scores above the rescue threshold.
			for k := 6; k < readLen; k += 12 {
				r2[k] ^= 1
			}
		}
		qual := []byte(strings.Repeat("I", readLen))
		name := fmt.Sprintf("p%d", i)
		m1 = append(m1, seqio.Record{Name: name, Seq: r1, Qual: qual})
		m2 = append(m2, seqio.Record{Name: name, Seq: r2, Qual: qual})
	}
	paths := [2]string{filepath.Join(f.Dir, "mates1.fq"), filepath.Join(f.Dir, "mates2.fq")}
	for k, recs := range [2][]seqio.Record{m1, m2} {
		out, err := os.Create(paths[k])
		if err != nil {
			t.Fatal(err)
		}
		if err := seqio.WriteFastq(out, recs); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths[0], paths[1]
}

// modelCounters returns the seedex/* and align/* lines of a -metrics
// exposition.
func modelCounters(exposition string) string {
	var keep []string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "seedex_") || strings.HasPrefix(line, "align_") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestWorkerCountInvariance: single-end, paired-end and -verify runs
// write byte-identical SAM and identical seedex/* and align/* counters
// at 1, 2 and 4 workers. Small batches make every run stream several of
// them through the seeding and extension pools.
func TestWorkerCountInvariance(t *testing.T) {
	f := clitest.NewFixture(t)
	r1, r2 := writePairs(t, f, 150)
	for _, tc := range []struct{ name, args string }{
		{"single-end", "-ref $REF -reads " + r1},
		{"paired", "-ref $REF -reads " + r1 + " -reads2 " + r2},
		{"verify fmindex", "-ref $REF -index $INDEX -reads " + r1 + " -verify fmindex"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wantSAM, wantCounters string
			for _, workers := range []int{1, 2, 4} {
				args := fmt.Sprintf("%s -batch 64 -metrics -workers %d", tc.args, workers)
				code, sam, stderr := f.Run(context.Background(), run, args)
				if code != 0 {
					t.Fatalf("workers %d: exit %d:\n%s", workers, code, stderr)
				}
				counters := modelCounters(stderr)
				if !strings.Contains(counters, "seedex_extend_reads") || !strings.Contains(counters, "align_reads_aligned") {
					t.Fatalf("workers %d: no model counters in:\n%s", workers, stderr)
				}
				if workers == 1 {
					wantSAM, wantCounters = sam, counters
					continue
				}
				if sam != wantSAM {
					t.Errorf("workers %d: SAM differs from the 1-worker run", workers)
				}
				if counters != wantCounters {
					t.Errorf("workers %d: counters\n%s\nwant\n%s", workers, counters, wantCounters)
				}
			}
		})
	}
}

// TestWallTraceExtensionShards: under -walltrace the extension pool
// records worker spans on the seedex track whose shard read ranges cover
// every read exactly once, single-end and paired.
func TestWallTraceExtensionShards(t *testing.T) {
	f := clitest.NewFixture(t)
	r1, r2 := writePairs(t, f, 150)
	for _, tc := range []struct {
		name, args string
		reads      int
	}{
		{"single-end", "-reads " + r1, 150},
		{"paired", "-reads " + r1 + " -reads2 " + r2, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wall := filepath.Join(f.Dir, "wall.json")
			code, _, stderr := f.Run(context.Background(), run,
				"-ref $REF -out $OUT -batch 64 -workers 2 -walltrace "+wall+" "+tc.args)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, stderr)
			}
			spans, dropped, err := trace.ParseWallFile(wall)
			if err != nil || dropped != 0 {
				t.Fatalf("wall trace: %v, %d dropped", err, dropped)
			}
			covered := make([]int, tc.reads)
			for _, sp := range spans {
				if sp.Track != "seedex" {
					continue
				}
				if _, ok := trace.ParseWallWorkerProc(sp.Proc); !ok {
					t.Fatalf("seedex span on %q, not a worker", sp.Proc)
				}
				_, lo, hi, ok := trace.ParseWallShardName(sp.Name)
				if !ok || lo < 0 || hi > tc.reads {
					t.Fatalf("seedex span %q is not a shard of the %d reads", sp.Name, tc.reads)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, n := range covered {
				if n != 1 {
					t.Fatalf("read %d is in %d seedex shards, want 1", i, n)
				}
			}
		})
	}
}
