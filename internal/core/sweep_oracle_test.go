package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"casa/internal/dna"
	"casa/internal/smem"
	"casa/internal/trace"
)

// oracleSeedTrace is the partition-by-partition sweep SeedTrace ran
// before it searched the reference-wide filter once per pivot: every
// partition pass looks each pivot and exact-match anchor up in its own
// filter (Partition.ExactCheck and appendSeed) and the stage deltas are
// read off the partition counters. It is the differential oracle for
// seedStrands and must stay this direct.
func (a *Accelerator) oracleSeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) *Activity {
	act := &Activity{
		Reads:  make([]ReadResult, len(reads)),
		Stage1: make([]PartStats, len(a.parts)),
		Stage2: make([]PartStats, len(a.parts)),
	}
	tracks := make([]string, len(a.parts))
	for pi := range a.parts {
		tracks[pi] = fmt.Sprintf("p%02d", pi)
	}
	for i, r := range reads {
		fwd, rev := a.oracleStrands(r, act, tb, tracks, base+i)
		act.Reads[i] = ReadResult{
			Forward: smem.Retain(smem.AppendMerged(nil, fwd)),
			Reverse: smem.Retain(smem.AppendMerged(nil, rev)),
		}
	}
	return act
}

func (a *Accelerator) oracleStrands(read dna.Sequence, act *Activity, tb *trace.Buffer, tracks []string, readKey int) (fwd, rev []smem.Match) {
	seqs := [2]dna.Sequence{read, read.ReverseComplement()}
	readBytes := int64((len(read) + 3) / 4)
	var retired [2]bool
	var strand [2][]smem.Match
	var cursor, stage1Total int64

	if a.cfg.ExactMatchPrepass {
		for pi, p := range a.parts {
			if retired[0] && retired[1] {
				break
			}
			act.ReadBytes += readBytes
			before := p.Stats
			for s := 0; s < 2; s++ {
				if retired[s] || len(seqs[s]) < a.cfg.MinSMEM {
					continue
				}
				if hits, ok := p.ExactCheck(seqs[s]); ok {
					retired[s] = true
					retired[s^1] = true
					strand[s] = append(strand[s], smem.Match{Start: 0, End: len(seqs[s]) - 1, Hits: hits})
				}
			}
			d := diffStats(p.Stats, before)
			act.Stage1[pi].add(d)
			cyc := stageCycles(d, a.cfg)
			if cyc > 0 {
				tb.Emit(readKey, tracks[pi], "exact", cursor, cyc)
			}
			cursor += cyc
		}
		stage1Total = cursor
		tb.Emit(readKey, "exact", "exact", 0, stage1Total)
	}

	for pi, p := range a.parts {
		if retired[0] && retired[1] {
			break
		}
		if !a.cfg.ExactMatchPrepass {
			act.ReadBytes += readBytes
		}
		before := p.Stats
		for s := 0; s < 2; s++ {
			if !retired[s] {
				strand[s] = p.appendSeed(strand[s], seqs[s], false)
			}
		}
		d := diffStats(p.Stats, before)
		act.Stage2[pi].add(d)
		cyc := stageCycles(d, a.cfg)
		if cyc > 0 {
			tb.Emit(readKey, tracks[pi], "smem", cursor, cyc)
		}
		cursor += cyc
	}
	tb.Emit(readKey, "smem", "smem", stage1Total, cursor-stage1Total)
	return strand[0], strand[1]
}

// diffStats returns the activity between two snapshots of a partition's
// counters.
func diffStats(after, before PartStats) PartStats {
	d := after
	d.ReadsSeeded -= before.ReadsSeeded
	d.ReadsDiscarded -= before.ReadsDiscarded
	d.ReadsExact -= before.ReadsExact
	d.PivotsTotal -= before.PivotsTotal
	d.PivotsFilteredTable -= before.PivotsFilteredTable
	d.PivotsFilteredCRkM -= before.PivotsFilteredCRkM
	d.PivotsFilteredAlign -= before.PivotsFilteredAlign
	d.PivotsComputed -= before.PivotsComputed
	d.RMEMSearches -= before.RMEMSearches
	d.StrideSteps -= before.StrideSteps
	d.BinSearchSteps -= before.BinSearchSteps
	d.CAMSearches -= before.CAMSearches
	d.CAMRowsEnabled -= before.CAMRowsEnabled
	d.ComputeCycles -= before.ComputeCycles
	d.Filter.Lookups -= before.Filter.Lookups
	d.Filter.Hits -= before.Filter.Hits
	d.Filter.MiniAccesses -= before.Filter.MiniAccesses
	d.Filter.TagSearches -= before.Filter.TagSearches
	d.Filter.TagRowsEnabled -= before.Filter.TagRowsEnabled
	d.Filter.DataAccesses -= before.Filter.DataAccesses
	return d
}

// sweepCase draws a random geometry (k, m, stride, groups, 1-40
// partitions, any overlap, gating and ablation switches), a reference
// (repeat-rich half the time) and a read batch mixing planted, exact,
// reverse-complement, foreign and shorter-than-k reads.
func sweepCase(rng *rand.Rand) (Config, int, dna.Sequence, []dna.Sequence) {
	cfg := testConfig()
	cfg.K = 2 + rng.Intn(13)
	cfg.M = 1 + rng.Intn(min(cfg.K-1, 6))
	cfg.MinSMEM = cfg.K + rng.Intn(4)
	cfg.Stride = 1 + rng.Intn(64)
	cfg.Groups = 1 + rng.Intn(64)
	cfg.GroupGating = rng.Intn(2) == 0
	cfg.EntryGating = rng.Intn(2) == 0
	cfg.ExactMatchPrepass = rng.Intn(2) == 0
	switch rng.Intn(3) {
	case 0:
		cfg.UseFilterTable, cfg.UseAnalysis = true, true
	case 1:
		cfg.UseFilterTable, cfg.UseAnalysis = true, false
	default:
		cfg.UseFilterTable, cfg.UseAnalysis = false, false
	}

	ref := randSeq(rng, 40+rng.Intn(3000))
	if rng.Intn(2) == 0 {
		// Tile a short motif so most k-mers repeat within and across
		// partitions.
		motif := randSeq(rng, 1+rng.Intn(30))
		for i := range ref {
			if rng.Intn(20) != 0 {
				ref[i] = motif[i%len(motif)]
			}
		}
	}
	step := max(1, (len(ref)+rng.Intn(40))/(1+rng.Intn(40)))
	overlap := rng.Intn(1 + 2*step)
	if rng.Intn(4) == 0 {
		overlap = 0
	}
	cfg.PartitionBases = max(step+overlap, cfg.Stride, overlap+1)

	var reads []dna.Sequence
	for i := 0; i < 1+rng.Intn(12); i++ {
		n := min(len(ref), rng.Intn(3*cfg.K+60))
		start := rng.Intn(len(ref) - n + 1)
		read := ref[start : start+n].Clone()
		switch rng.Intn(5) {
		case 0: // exact
		case 1:
			read = read.ReverseComplement()
		case 2:
			read = randSeq(rng, n)
		default:
			for m := rng.Intn(4); m > 0 && n > 0; m-- {
				read[rng.Intn(n)] = dna.Base(rng.Intn(4))
			}
		}
		reads = append(reads, read)
	}
	return cfg, overlap, ref, reads
}

// checkSweep requires seedStrands and the oracle sweep to agree on every
// SMEM, every per-partition stage delta, the read bytes and every trace
// span of the batch.
func checkSweep(t *testing.T, cfg Config, overlap int, ref dna.Sequence, reads []dna.Sequence) {
	t.Helper()
	a, err := NewWithOverlap(ref, cfg, overlap)
	if err != nil {
		t.Fatalf("%+v overlap %d: %v", cfg, overlap, err)
	}
	gotTrace, wantTrace := trace.New(trace.PolicyAll, 0), trace.New(trace.PolicyAll, 0)
	got := a.Clone().SeedTrace(reads, gotTrace.NewBuffer("casa"), 7)
	want := a.Clone().oracleSeedTrace(reads, wantTrace.NewBuffer("casa"), 7)
	where := fmt.Sprintf("k=%d m=%d stride=%d groups=%d partitions=%d overlap=%d prepass=%v table=%v analysis=%v",
		cfg.K, cfg.M, cfg.Stride, cfg.Groups, a.Partitions(), overlap, cfg.ExactMatchPrepass, cfg.UseFilterTable, cfg.UseAnalysis)
	for i := range reads {
		if !reflect.DeepEqual(got.Reads[i], want.Reads[i]) {
			t.Fatalf("%s: read %d SMEMs\n got %v\nwant %v", where, i, got.Reads[i], want.Reads[i])
		}
	}
	for pi := range want.Stage1 {
		if got.Stage1[pi] != want.Stage1[pi] {
			t.Fatalf("%s: partition %d stage 1\n got %+v\nwant %+v", where, pi, got.Stage1[pi], want.Stage1[pi])
		}
		if got.Stage2[pi] != want.Stage2[pi] {
			t.Fatalf("%s: partition %d stage 2\n got %+v\nwant %+v", where, pi, got.Stage2[pi], want.Stage2[pi])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: activity differs (read bytes %d vs %d)", where, got.ReadBytes, want.ReadBytes)
	}
	if g, w := gotTrace.Spans(), wantTrace.Spans(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: trace spans differ\n got %v\nwant %v", where, g, w)
	}
}

// TestSweepMatchesOracle is the differential test of the reference-wide
// sweep against the partition-by-partition one over random geometries.
func TestSweepMatchesOracle(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 80
	}
	rng := rand.New(rand.NewSource(16))
	for c := 0; c < cases; c++ {
		cfg, overlap, ref, reads := sweepCase(rng)
		checkSweep(t, cfg, overlap, ref, reads)
	}
}

// FuzzSweepMatchesOracle drives the same comparison from a fuzzed seed
// (geometry, reference and batch) plus one fuzzed read.
func FuzzSweepMatchesOracle(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 2})
	f.Add(int64(16), []byte{})
	f.Add(int64(99), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, extra []byte) {
		cfg, overlap, ref, reads := sweepCase(rand.New(rand.NewSource(seed)))
		read := make(dna.Sequence, min(len(extra), 300))
		for i := range read {
			read[i] = dna.Base(extra[i] & 3)
		}
		checkSweep(t, cfg, overlap, ref, append(reads, read))
	})
}
