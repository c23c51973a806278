// Package align provides the sequence-alignment substrate for the SeedEx
// seed-extension stage: affine-gap Smith-Waterman (local, the full-DP
// golden), banded fitting alignment (the BSW core computation), and Myers
// bit-parallel edit distance (the edit-machine computation). Scores
// follow BWA-MEM2's defaults.
package align

import "fmt"

// Scoring holds affine-gap alignment parameters. Penalties are positive
// numbers (subtracted during alignment).
type Scoring struct {
	Match     int // score for a base match
	Mismatch  int // penalty for a substitution
	GapOpen   int // penalty to open a gap
	GapExtend int // penalty per gap base (including the first)
}

// BWAMEM2 returns BWA-MEM2's default scoring (1, 4, 6, 1).
func BWAMEM2() Scoring {
	return Scoring{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1}
}

// Validate checks the parameters.
func (s Scoring) Validate() error {
	if s.Match <= 0 || s.Mismatch < 0 || s.GapOpen < 0 || s.GapExtend <= 0 {
		return fmt.Errorf("align: invalid scoring %+v", s)
	}
	return nil
}

// Op is one CIGAR operation kind.
type Op byte

// CIGAR operation kinds (SAM semantics).
const (
	OpMatch  Op = 'M' // alignment match or mismatch
	OpInsert Op = 'I' // insertion to the reference (base in query only)
	OpDelete Op = 'D' // deletion from the reference (base in ref only)
	OpClip   Op = 'S' // soft clip (query bases outside the alignment)
)

// CigarOp is a run-length encoded CIGAR element.
type CigarOp struct {
	Op  Op
	Len int
}

// Cigar is a full CIGAR string.
type Cigar []CigarOp

// String renders the CIGAR in SAM notation.
func (c Cigar) String() string {
	s := ""
	for _, op := range c {
		s += fmt.Sprintf("%d%c", op.Len, byte(op.Op))
	}
	return s
}

// QueryLen returns the number of query bases the CIGAR consumes.
func (c Cigar) QueryLen() int {
	n := 0
	for _, op := range c {
		if op.Op == OpMatch || op.Op == OpInsert || op.Op == OpClip {
			n += op.Len
		}
	}
	return n
}

// RefLen returns the number of reference bases the CIGAR consumes.
func (c Cigar) RefLen() int {
	n := 0
	for _, op := range c {
		if op.Op == OpMatch || op.Op == OpDelete {
			n += op.Len
		}
	}
	return n
}

// appendOp adds an operation, merging with the previous run.
func appendOp(c Cigar, op Op, n int) Cigar {
	if n <= 0 {
		return c
	}
	if len(c) > 0 && c[len(c)-1].Op == op {
		c[len(c)-1].Len += n
		return c
	}
	return append(c, CigarOp{Op: op, Len: n})
}

// reverseCigar reverses the op order in place (tracebacks emit reversed).
func reverseCigar(c Cigar) Cigar {
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	// Merge any now-adjacent equal ops.
	out := c[:0]
	for _, op := range c {
		out = appendOp(out, op.Op, op.Len)
	}
	return out
}
