package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"casa/internal/dna"
	"casa/internal/idxio"
)

// Index persistence: the paper builds the pre-seeding filter tables
// offline for each reference partition (§4.1), so the construction
// happens once (cmd/casa-index) and later runs load it. The index stores
// what BuildFilter sorted and derives what it counted, in three
// casa-idx/v1 sections:
//
//	casa/config     Config plus the partition overlap, one JSON object
//	casa/ref        the flattened reference, 2-bit packed (idxio.WriteBases)
//	casa/positions  each partition's k-mer occurrence positions in
//	                (k-mer, position) order, concatenated (idxio.WriteInt32s)
//
// LoadIndex reruns NewWithOverlap's partition-span loop and hands the
// partitions' positions to newRefFilter, the constructor building calls
// after its sort, so build and load differ only by the sort and no
// second decoder has to track the filter layout. Checksums and lengths
// are the container's job; this layer validates structure.
const (
	configSection    = "casa/config"
	refSection       = "casa/ref"
	positionsSection = "casa/positions"
)

// savedConfig is the casa/config payload.
type savedConfig struct {
	Config
	Overlap int
}

// maxConfigBytes bounds the casa/config payload a loader will parse.
const maxConfigBytes = 1 << 16

// SaveIndex writes the accelerator's three sections to w.
func (a *Accelerator) SaveIndex(w *idxio.Writer) error {
	if err := w.Section(configSection, func(sw io.Writer) error {
		return json.NewEncoder(sw).Encode(savedConfig{a.cfg, a.overlap})
	}); err != nil {
		return err
	}
	if err := w.Section(refSection, func(sw io.Writer) error {
		return idxio.WriteBases(sw, a.ref)
	}); err != nil {
		return err
	}
	return w.Section(positionsSection, func(sw io.Writer) error {
		for _, pos := range a.idx.partPositions() {
			if err := idxio.WriteInt32s(sw, pos); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadIndex reads SaveIndex's sections back into an accelerator equal to
// the one that wrote them. Every structural error names its section.
func LoadIndex(r *idxio.Reader) (*Accelerator, error) {
	sec, err := r.Section(configSection)
	if err != nil {
		return nil, err
	}
	var sc savedConfig
	dec := json.NewDecoder(io.LimitReader(sec, maxConfigBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, sectionError(configSection, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, sectionError(configSection, fmt.Errorf("data after the config object"))
	}
	if err := checkLayout(sc.Config, sc.Overlap); err != nil {
		return nil, sectionError(configSection, err)
	}
	if err := expectEnd(sec); err != nil {
		return nil, sectionError(configSection, err)
	}

	if sec, err = r.Section(refSection); err != nil {
		return nil, err
	}
	// Hit positions are int32 offsets into the whole reference.
	ref, err := idxio.ReadBases(sec, math.MaxInt32)
	if err == nil && len(ref) == 0 {
		err = fmt.Errorf("empty reference")
	}
	if err == nil {
		err = expectEnd(sec)
	}
	if err != nil {
		return nil, sectionError(refSection, err)
	}

	// The mini index is sized by the config alone; bound it by what the
	// index stores before allocating it.
	if err := checkMiniIndex(sc.Config, storedPositions(len(ref), sc.Config, sc.Overlap)); err != nil {
		return nil, sectionError(configSection, err)
	}

	if sec, err = r.Section(positionsSection); err != nil {
		return nil, err
	}
	a, err := partitioned(ref, sc.Config, sc.Overlap, func(i int, part *dna.PackedSeq) ([]int32, error) {
		positions, err := idxio.ReadInt32s(sec, kmerStarts(part, sc.Config))
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
		return positions, nil
	})
	if err == nil {
		err = expectEnd(sec)
	}
	if err != nil {
		return nil, sectionError(positionsSection, err)
	}
	return a, nil
}

// expectEnd reports bytes left in a section its decoder has finished.
func expectEnd(sec io.Reader) error {
	var b [1]byte
	n, err := sec.Read(b[:])
	if n > 0 {
		return fmt.Errorf("payload longer than its contents")
	}
	if err != io.EOF {
		return err
	}
	return nil
}

func sectionError(name string, err error) error {
	return fmt.Errorf("core: section %q: %w", name, err)
}
