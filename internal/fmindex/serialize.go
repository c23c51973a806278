package fmindex

import (
	"fmt"
	"io"
	"math"

	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/suffixarray"
)

// Index serialization for the casa-idx container (§4.1's offline index
// construction, applied to the FM-index engines). The rule, shared with
// the casa engine: store what was sorted, derive what was counted. The
// text and its suffix array are stored; the occ planes and C table are
// recomputed in one linear pass (BuildFromSA, which Build also goes
// through). Payload layout, little-endian, in idxio's array encodings:
//
//	u64 n | ceil(n/4) packed text bytes | (n+1) x i32 suffix array
//
// Integrity (checksums, lengths) is the container's job; this layer
// only validates structure, so a corrupted-but-CRC-valid stream can
// never build an index that indexes out of bounds.

// Serialize writes the index's text and suffix array to w.
func (f *FMIndex) Serialize(w io.Writer) error {
	if err := idxio.WriteBases(w, f.text); err != nil {
		return err
	}
	return idxio.WriteInt32s(w, f.sa)
}

// Deserialize reads a Serialize payload back and rebuilds the full
// index. Allocation tracks the bytes actually read, not a length a
// corrupted stream merely claims.
func Deserialize(r io.Reader) (*FMIndex, error) {
	// The suffix array's n+1 rows must fit int32.
	text, err := idxio.ReadBases(r, math.MaxInt32-1)
	if err != nil {
		return nil, fmt.Errorf("fmindex: text: %w", err)
	}
	sa, err := idxio.ReadInt32s(r, len(text)+1)
	if err != nil {
		return nil, fmt.Errorf("fmindex: suffix array: %w", err)
	}
	return BuildFromSA(text, sa)
}

// BuildFromSA constructs the index from a text and an externally
// supplied suffix array (with sentinel row; len(sa) == len(text)+1),
// validating that sa is a permutation of 0..n so hostile input cannot
// produce an index that reads out of bounds. Build routes through the
// same construction with the freshly computed suffix array.
func BuildFromSA(text dna.Sequence, sa []int32) (*FMIndex, error) {
	n := len(text)
	if len(sa) != n+1 {
		return nil, fmt.Errorf("fmindex: suffix array has %d rows for %d bases (want %d)", len(sa), n, n+1)
	}
	seen := make([]bool, n+1)
	for _, p := range sa {
		if p < 0 || int(p) > n {
			return nil, fmt.Errorf("fmindex: suffix array row %d out of range [0, %d]", p, n)
		}
		if seen[p] {
			return nil, fmt.Errorf("fmindex: duplicate suffix array row %d", p)
		}
		seen[p] = true
	}
	return build(text, sa), nil
}

// Verify recomputes the suffix array from the text and compares,
// proving a deserialized index is self-consistent; used by tests, not
// the load path (it costs a full suffix-array construction).
func (f *FMIndex) Verify() error {
	want := suffixarray.Build(f.text)
	for i, p := range f.sa {
		if p != want[i] {
			return fmt.Errorf("fmindex: suffix array row %d is %d, recomputed %d", i, p, want[i])
		}
	}
	return nil
}
