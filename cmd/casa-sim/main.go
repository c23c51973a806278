// Command casa-sim runs the CASA accelerator simulator over a reference
// (FASTA) or a prebuilt casa index and a read set (FASTQ), printing the
// modelled throughput, power, DRAM bandwidth, filter statistics, and the
// Table 4 style breakdown for the run. The accelerator opens through
// internal/cli: under -index the index fixes the geometry, so an
// explicit geometry flag the header does not record with the same value
// is a conflict (exit 2).
//
// Usage:
//
//	casa-sim -ref ref.fa -reads reads.fq [-partition 4194304] [-k 19] [-naive]
//	casa-sim -index ref.casaidx -reads reads.fq
package main

import (
	"context"
	"fmt"
	"io"

	"casa/internal/cli"
	"casa/internal/core"
	"casa/internal/engine"
)

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("casa-sim", stdout, stderr)
	fs := c.Flags
	src := cli.Source{Engine: "casa"}
	cfg := core.DefaultConfig()
	fs.StringVar(&src.Ref, "ref", "", "reference FASTA (required unless -index)")
	fs.StringVar(&src.Index, "index", "", "prebuilt casa-idx/v1 index holding a casa accelerator (casa-index output); replaces -ref and fixes the geometry")
	readsPath := fs.String("reads", "", "reads FASTQ (required)")
	fs.IntVar(&cfg.PartitionBases, "partition", 4<<20, "partition size in bases")
	fs.IntVar(&cfg.K, "k", 19, "seed k-mer size")
	fs.IntVar(&cfg.M, "m", 10, "mini index m-mer size")
	fs.IntVar(&cfg.MinSMEM, "min-smem", 19, "minimum reported SMEM length")
	naive := fs.Bool("naive", false, "disable the pre-seeding filter and analyses")
	noPrepass := fs.Bool("no-exact-prepass", false, "disable the exact-match prepass")
	maxReads := fs.Int("max-reads", 0, "cap the number of reads (0 = all)")
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if *readsPath == "" {
		return c.Usage()
	}
	if err := src.Resolve(fs); err != nil {
		return c.Fail(err)
	}
	if *naive {
		cfg.UseFilterTable = false
		cfg.UseAnalysis = false
		cfg.GroupGating = false
		cfg.EntryGating = false
	}
	if *noPrepass {
		cfg.ExactMatchPrepass = false
	}
	src.Options.Config = cfg

	reads, _, err := cli.LoadReads(*readsPath, *maxReads)
	if err != nil {
		return c.Fail(err)
	}
	o, err := src.Open(nil)
	if err != nil {
		return c.Fail(err)
	}
	// The simulator models the paper's accelerator specifically: any
	// casa-idx/v1 container works as long as it unwraps to one.
	u, ok := o.Engine.(engine.Unwrapper)
	var acc *core.Accelerator
	if ok {
		acc, ok = u.Unwrap().(*core.Accelerator)
	}
	if !ok {
		return c.Fail(fmt.Errorf("%s holds a %s index; casa-sim needs a casa index", src.Index, o.Header.Engine))
	}
	cfg = acc.Config()
	fmt.Fprintf(stdout, "reference: %d partitions; on-chip budget %.1f MB\n",
		acc.Partitions(), float64(cfg.OnChipBytes())/(1<<20))

	res := acc.SeedReads(reads)
	st := res.Stats
	fmt.Fprintf(stdout, "reads:            %d (x2 strands x %d partitions)\n", len(reads), acc.Partitions())
	fmt.Fprintf(stdout, "throughput:       %.3g reads/s (modelled, %d cycles)\n", res.Throughput(), res.Cycles)
	fmt.Fprintf(stdout, "power:            %.2f W   efficiency: %.1f reads/mJ\n", res.Energy.PowerW(), res.ReadsPerMJ())
	fmt.Fprintf(stdout, "DRAM:             %.1f GB/s average\n", res.DRAM.BandwidthGBs(res.Seconds))
	fmt.Fprintf(stdout, "exact-match reads:%d   discarded (no hit): %d\n", st.ReadsExact, st.ReadsDiscarded)
	fmt.Fprintf(stdout, "pivots:           %d total; filtered: table %d, CRkM %d, align %d; computed %d (%.3f%%)\n",
		st.PivotsTotal, st.PivotsFilteredTable, st.PivotsFilteredCRkM, st.PivotsFilteredAlign,
		st.PivotsComputed, 100*float64(st.PivotsComputed)/float64(max(st.PivotsTotal, 1)))
	fmt.Fprintf(stdout, "CAM activity:     %d searches, %d rows enabled, %d stride steps, %d binary-search steps\n",
		st.CAMSearches, st.CAMRowsEnabled, st.StrideSteps, st.BinSearchSteps)
	smems := 0
	for _, rr := range res.Reads {
		smems += len(rr.Forward) + len(rr.Reverse)
	}
	fmt.Fprintf(stdout, "SMEMs:            %d across both strands\n\n", smems)
	fmt.Fprintln(stdout, res.Energy.String())
	return 0
}
