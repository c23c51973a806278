package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/refidx"
	"casa/internal/seqio"
)

// buildFlags is the one conflict-rule table. Each entry is a flag that
// configures how an engine is built, with the casa-idx/v1 header field
// that records it (nil: the header does not record it). Under -index an
// explicitly set build flag must equal the recorded value, and a flag
// the header does not record cannot be honoured at all: the index fixed
// it when it was built.
var buildFlags = map[string]func(idxio.Header) string{
	"engine":        func(h idxio.Header) string { return h.Engine },
	"min-smem":      func(h idxio.Header) string { return strconv.Itoa(h.MinSMEM) },
	"partition":     func(h idxio.Header) string { return strconv.Itoa(h.Partition) },
	"shards":        func(h idxio.Header) string { return strconv.Itoa(h.Shards) },
	"shard-overlap": func(h idxio.Header) string { return strconv.Itoa(h.ShardOverlap) },
	// casa-sim's accelerator geometry.
	"k": nil, "m": nil, "naive": nil, "no-exact-prepass": nil,
}

// BuildFlag reports whether a flag configures how an engine is built.
func BuildFlag(name string) bool {
	_, ok := buildFlags[name]
	return ok
}

// Source is where a command's engine comes from: a reference FASTA
// (-ref), a prebuilt casa-idx/v1 index (-index), or — casa-align — a
// reference plus an index over it. Commands bind their flags to its
// fields; Resolve checks them and Open opens the engine.
type Source struct {
	Ref, Index string

	// RefRequired makes -ref mandatory and -index its optional
	// companion, whose chromosome table must match -ref's (casa-align:
	// extension and SAM need the reference).
	RefRequired bool

	// Engine is the engine to build from -ref; Resolve turns an alias
	// into its registry name, and under -index into the header's engine.
	Engine string

	// Verify is a second engine to cross-check against; it is built
	// from the reference, so it needs -ref.
	Verify string

	// Options are the build options for -ref.
	Options engine.Options

	header idxio.Header // read by Resolve under -index
}

// Resolve applies the rules to the parsed flags in fs: exactly one of
// -ref or -index (or -ref and an optional -index with RefRequired),
// -verify only with -ref, engine names resolved through the registry,
// and under -index every explicitly set build flag equal to the value
// the header records. It reads only the header, so a conflict fails
// before the index is decoded.
func (s *Source) Resolve(fs *flag.FlagSet) error {
	switch {
	case s.RefRequired && s.Ref == "":
		return Usagef("-ref is required")
	case !s.RefRequired && (s.Ref == "") == (s.Index == ""):
		return Usagef("give exactly one of -ref or -index")
	case s.Verify != "" && s.Ref == "":
		return Usagef("-verify builds a second engine from the reference and needs -ref")
	}
	var err error
	if s.Engine, err = registryName(s.Engine); err != nil {
		return err
	}
	if s.Verify != "" {
		if s.Verify, err = registryName(s.Verify); err != nil {
			return err
		}
	}
	if s.Index == "" {
		return nil
	}
	if s.header, err = readHeader(s.Index); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		recorded, build := buildFlags[f.Name]
		switch {
		case !build || err != nil:
		case recorded == nil:
			err = Usagef("-%s %s conflicts with %s: its header does not record -%s, which the index fixed when it was built",
				f.Name, f.Value, s.Index, f.Name)
		case f.Value.String() != recorded(s.header):
			err = Usagef("-%s %s conflicts with %s, whose header records %s",
				f.Name, f.Value, s.Index, recorded(s.header))
		}
	})
	s.Engine = s.header.Engine
	return err
}

// registryName resolves an engine name or alias to its registry name.
func registryName(name string) (string, error) {
	f, ok := engine.Lookup(name)
	if !ok {
		return "", Usagef("unknown engine %q (registered: %s)", name, strings.Join(engine.Names(), ", "))
	}
	return f.Name, nil
}

// readHeader reads just the casa-idx/v1 header of an index file.
func readHeader(path string) (idxio.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return idxio.Header{}, err
	}
	defer f.Close()
	_, hdr, err := idxio.NewReader(f)
	return hdr, err
}

// Opened is an open engine with what commands need around it.
type Opened struct {
	Engine engine.Engine

	// Header is the index's header; from -ref alone it is the header
	// casa-index would write for this build. Commands take the engine
	// label and MinSMEM from it either way.
	Header idxio.Header

	// Ref is the reference, nil when the engine came from -index alone.
	Ref *refidx.Index
}

// Open loads the reference, then builds the engine from it or decodes
// the index. phase, when non-nil, is called as each host phase ends with
// its name and start: "load" (the reference), then "build" or
// "index-load". Call Resolve first.
func (s *Source) Open(phase func(name string, start time.Time)) (*Opened, error) {
	if phase == nil {
		phase = func(string, time.Time) {}
	}
	o := &Opened{Header: s.header}
	var chroms []idxio.Chromosome
	if s.Ref != "" {
		start := time.Now()
		ref, err := loadRef(s.Ref)
		if err != nil {
			return nil, err
		}
		phase("load", start)
		o.Ref = ref
		for _, c := range ref.Chromosomes() {
			chroms = append(chroms, idxio.Chromosome{Name: c.Name, Start: int64(c.Start), Length: int64(c.Length)})
		}
	}
	start := time.Now()
	if s.Index == "" {
		eng, err := engine.New(s.Engine, o.Ref.Flat(), s.Options)
		if err != nil {
			return nil, err
		}
		phase("build", start)
		o.Engine, o.Header = eng, engine.HeaderFor(s.Engine, s.Options, chroms)
		return o, nil
	}
	// The index must describe the reference -ref resolved to: extension
	// and SAM emission use -ref's coordinates, so a stale index would
	// silently misplace every alignment.
	if o.Ref != nil {
		if err := sameChromosomes(s.header.Chromosomes, chroms); err != nil {
			return nil, Usagef("%s does not match -ref %s: %v", s.Index, s.Ref, err)
		}
	}
	f, err := os.Open(s.Index)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if o.Engine, _, err = engine.LoadIndex(f); err != nil {
		return nil, err
	}
	phase("index-load", start)
	return o, nil
}

// sameChromosomes requires an index's chromosome table to match the
// reference's, name for name and coordinate for coordinate. An index
// written without a chromosome table passes: there is nothing to check.
func sameChromosomes(got, want []idxio.Chromosome) error {
	if len(got) == 0 {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("index has %d sequences, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; g != w {
			return fmt.Errorf("sequence %d: index has %s [%d,+%d), reference has %s [%d,+%d)",
				i, g.Name, g.Start, g.Length, w.Name, w.Start, w.Length)
		}
	}
	return nil
}

// loadRef reads a FASTA into the flat reference every tool seeds
// (refidx.Build: records concatenated with spacers), so a -ref run and
// an -index run over the same FASTA share one coordinate space.
func loadRef(path string) (*refidx.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := seqio.ReadFasta(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ix, err := refidx.Build(recs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// LoadReads reads up to maxReads (0 = all) records of a FASTQ file.
func LoadReads(path string, maxReads int) ([]dna.Sequence, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var reads []dna.Sequence
	var names []string
	err = seqio.ForEachFastq(f, func(rec seqio.Record) error {
		if maxReads > 0 && len(reads) >= maxReads {
			return nil
		}
		reads = append(reads, rec.Seq)
		names = append(names, rec.Name)
		return nil
	})
	return reads, names, err
}
