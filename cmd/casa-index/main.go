// Command casa-index builds a seeding index offline for any persisting
// engine in the internal/engine registry and writes it as a versioned,
// checksummed casa-idx/v1 container, matching the paper's flow ("CASA
// builds the mini index table and the tag table offline for each
// reference partition", §4.1). casa-smem, casa-serve, casa-align and
// casa-sim load the result with -index, skipping reconstruction.
//
// The output is written atomically: the container is staged in a
// temporary file next to -out and renamed into place only after a
// successful write, so a crash or a full disk never leaves a truncated
// index under the final name.
//
// Usage:
//
//	casa-index -ref ref.fa -out ref.casaidx [-engine casa] [-min-smem 19] [-shards N]
//	casa-index -info ref.casaidx
//
// The two modes are exclusive: combining -info with any build flag is a
// usage error (exit 2), not a silent ignore — a typo like
// `casa-index -info old.casaidx -out new.casaidx` must not masquerade as
// a successful rebuild. The reference loads and the engine builds
// through internal/cli, as in every command that reads the index back.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"casa/internal/cli"
	"casa/internal/core"
	"casa/internal/engine"
	"casa/internal/idxio"
)

// options holds the parsed command line.
type options struct {
	ref, out, info string
	eng            string
	minSMEM        int
	partition      int
	k, m           int
	shards         int
	shardOverlap   int

	// kSet/mSet record whether the casa-specific geometry knobs were
	// given explicitly; they select the core.Config build path and are
	// rejected for engines that have no such config.
	kSet, mSet bool
}

// parseArgs registers the flags on fs and parses args, rejecting
// contradictory mode mixes. Only flags the user explicitly set count:
// defaults never conflict.
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.ref, "ref", "", "reference FASTA")
	fs.StringVar(&o.out, "out", "ref.casaidx", "index output path")
	fs.StringVar(&o.eng, "engine", "casa", "engine to index for (any registered name; \"list\" prints them)")
	fs.IntVar(&o.minSMEM, "min-smem", 19, "minimum SMEM length recorded in the index header")
	fs.IntVar(&o.partition, "partition", 0, "partition size in bases for partitioning engines (0 = engine default)")
	fs.IntVar(&o.k, "k", 19, "seed k-mer size (casa engine only)")
	fs.IntVar(&o.m, "m", 10, "mini index m-mer size (casa engine only)")
	fs.IntVar(&o.shards, "shards", 0, "reference shards for sharded:* engines (0 = engine default)")
	fs.IntVar(&o.shardOverlap, "shard-overlap", 0, "shard overlap in bases; must be >= the longest read seeded (0 = engine default)")
	fs.StringVar(&o.info, "info", "", "inspect an existing index instead of building")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var mixed []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "k":
			o.kSet = true
		case "m":
			o.mSet = true
		}
		// -info only reads an index, so every flag that configures a
		// build contradicts it.
		if o.info != "" && (f.Name == "ref" || f.Name == "out" || cli.BuildFlag(f.Name)) {
			mixed = append(mixed, "-"+f.Name)
		}
	})
	if len(mixed) > 0 {
		sort.Strings(mixed)
		return nil, cli.Usagef("-info inspects an existing index and cannot be combined with build flag(s) %s", strings.Join(mixed, ", "))
	}
	return o, nil
}

func main() { cli.Main(run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	c := cli.New("casa-index", stdout, stderr)
	o, err := parseArgs(c.Flags, args)
	if code, ok := c.Parsed(err); !ok {
		return code
	}
	if o.info != "" {
		if err := inspect(stdout, o.info); err != nil {
			return c.Fail(err)
		}
		return 0
	}
	if o.ref == "" {
		return c.Usage()
	}
	src := cli.Source{Ref: o.ref, Engine: o.eng, Options: engine.Options{
		MinSMEM:      o.minSMEM,
		Partition:    o.partition,
		Shards:       o.shards,
		ShardOverlap: o.shardOverlap,
	}}
	if err := src.Resolve(c.Flags); err != nil {
		return c.Fail(err)
	}
	name := src.Engine
	if f, _ := engine.Lookup(name); f.NewEmpty == nil {
		return c.Fail(fmt.Errorf("engine %s does not support index persistence (it rebuilds from FASTA as fast as it would load)", name))
	}
	if o.kSet || o.mSet {
		if strings.TrimPrefix(name, "sharded:") != "casa" {
			return c.Fail(fmt.Errorf("-k and -m configure the casa accelerator; they do not apply to -engine %s", name))
		}
		cfg := core.DefaultConfig()
		cfg.K, cfg.M = o.k, o.m
		if o.minSMEM > cfg.K {
			cfg.MinSMEM = o.minSMEM
		} else {
			cfg.MinSMEM = cfg.K
		}
		if o.partition > 0 {
			cfg.PartitionBases = o.partition
		}
		src.Options.Config = cfg
	}

	var buildTime time.Duration
	built, err := src.Open(func(phase string, start time.Time) {
		if phase == "build" {
			buildTime = time.Since(start)
		}
	})
	if err != nil {
		return c.Fail(err)
	}
	chroms := built.Header.Chromosomes
	start := time.Now()
	size, err := writeAtomic(o.out, func(w io.Writer) error {
		return engine.SaveIndex(w, built.Engine, src.Options, chroms)
	})
	if err != nil {
		return c.Fail(err)
	}
	fmt.Fprintf(stdout, "indexed %d bases (%d sequences) for %s in %v; wrote %s (%.1f MB) in %v\n",
		len(built.Ref.Flat()), len(chroms), name, buildTime.Round(time.Millisecond),
		o.out, float64(size)/(1<<20), time.Since(start).Round(time.Millisecond))
	return 0
}

// writeAtomic streams write into a temporary file beside path and renames
// it into place on success, so the final name only ever holds a complete
// container. The temp file is removed on any failure.
func writeAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	st, err := tmp.Stat()
	if err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	committed = true
	return st.Size(), nil
}

// inspect prints the casa-idx/v1 header and the section table — name,
// payload size and CRC32 per section — without loading the engine.
func inspect(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, infos, err := idxio.ReadInfo(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s/v%d %s\n", idxio.Magic, idxio.Version, path)
	fmt.Fprintf(w, "  engine: %s\n", hdr.Engine)
	fmt.Fprintf(w, "  options: min-smem=%d partition=%d table-k=%d cache-bytes=%d exact=%v shards=%d shard-overlap=%d\n",
		hdr.MinSMEM, hdr.Partition, hdr.TableK, hdr.CacheBytes, hdr.Exact, hdr.Shards, hdr.ShardOverlap)
	if len(hdr.Chromosomes) > 0 {
		fmt.Fprintf(w, "  sequences: %d\n", len(hdr.Chromosomes))
		for _, c := range hdr.Chromosomes {
			fmt.Fprintf(w, "    %-20s start %12d  length %12d\n", c.Name, c.Start, c.Length)
		}
	}
	fmt.Fprintf(w, "  sections: %d\n", len(infos))
	var total int64
	for _, s := range infos {
		fmt.Fprintf(w, "    %-28s %12d bytes  crc32 %08x\n", s.Name, s.Size, s.CRC)
		total += s.Size
	}
	fmt.Fprintf(w, "  total payload: %.1f MB\n", float64(total)/(1<<20))
	return nil
}
