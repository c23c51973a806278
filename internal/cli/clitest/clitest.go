// Package clitest drives the commands built on internal/cli in process:
// a toy reference, reads and indexes on disk, and the one table of
// command-line conflict rules every command is checked against.
package clitest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casa/internal/cli"
	"casa/internal/dna"
	"casa/internal/engine"
)

// Fixture is a toy workload on disk: Ref is a two-chromosome FASTA,
// Reads a FASTQ of exact substrings of it, Index a casa index over Ref
// and Other a casa index over a different one-chromosome reference.
type Fixture struct {
	Dir, Ref, Reads, Index, Other string
	NReads                        int
}

// NewFixture writes a fixture into a fresh temporary directory.
func NewFixture(t testing.TB) *Fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	random := func(n int) dna.Sequence {
		s := make(dna.Sequence, n)
		for i := range s {
			s[i] = dna.Base(rng.Intn(4))
		}
		return s
	}
	dir := t.TempDir()
	f := &Fixture{Dir: dir, NReads: 40,
		Ref: filepath.Join(dir, "ref.fa"), Reads: filepath.Join(dir, "reads.fq"),
		Index: filepath.Join(dir, "ref.casaidx"), Other: filepath.Join(dir, "other.casaidx")}
	chroms := []dna.Sequence{random(12000), random(9000)}
	var fa, fq bytes.Buffer
	for i, c := range chroms {
		fmt.Fprintf(&fa, ">chr%d\n%s\n", i+1, c)
	}
	for i := 0; i < f.NReads; i++ {
		c := chroms[i%2]
		at := rng.Intn(len(c) - 80)
		fmt.Fprintf(&fq, "@r%d\n%s\n+\n%s\n", i, c[at:at+80], strings.Repeat("I", 80))
	}
	other := filepath.Join(dir, "other.fa")
	writeFile(t, f.Ref, fa.Bytes())
	writeFile(t, f.Reads, fq.Bytes())
	writeFile(t, other, []byte(fmt.Sprintf(">other\n%s\n", random(15000))))
	writeIndex(t, f.Ref, f.Index)
	writeIndex(t, other, f.Other)
	return f
}

func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeIndex builds a casa index over the FASTA at ref, as casa-index
// does with its defaults.
func writeIndex(t testing.TB, ref, path string) {
	t.Helper()
	src := cli.Source{Ref: ref, Engine: "casa", Options: engine.Options{MinSMEM: 19}}
	o, err := src.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf, o.Engine, src.Options, o.Header.Chromosomes); err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, buf.Bytes())
}

// Run runs a command in process, with $REF, $READS, $INDEX, $OTHER and
// $OUT in args standing for the fixture's files and an output path.
func (f *Fixture) Run(ctx context.Context, run cli.RunFunc, args string) (code int, stdout, stderr string) {
	r := strings.NewReplacer("$REF", f.Ref, "$READS", f.Reads, "$INDEX", f.Index,
		"$OTHER", f.Other, "$OUT", filepath.Join(f.Dir, "out"))
	var out, errb bytes.Buffer
	code = run(ctx, strings.Fields(r.Replace(args)), &out, &errb)
	return code, out.String(), errb.String()
}

// matrix is the conflict-rule matrix: every command under each way of
// naming (or misnaming) its engine source, with the exit code and a
// substring of stderr it must give.
var matrix = []struct {
	cmd, row, args string
	code           int
	msg            string
}{
	{"casa-smem", "neither source", "-reads $READS", 2, "exactly one of -ref or -index"},
	{"casa-align", "neither source", "-reads $READS", 2, "-ref is required"},
	{"casa-serve", "neither source", "", 2, "exactly one of -ref or -index"},
	{"casa-sim", "neither source", "-reads $READS", 2, "exactly one of -ref or -index"},
	{"casa-index", "neither source", "", 2, "Usage of casa-index"},
	{"casa-smem", "both sources", "-ref $REF -index $INDEX -reads $READS", 2, "exactly one of -ref or -index"},
	{"casa-align", "both sources", "-ref $REF -index $INDEX -reads $READS -out $OUT", 0, ""},
	{"casa-serve", "both sources", "-ref $REF -index $INDEX", 2, "exactly one of -ref or -index"},
	{"casa-sim", "both sources", "-ref $REF -index $INDEX -reads $READS", 2, "exactly one of -ref or -index"},
	{"casa-index", "both sources", "-ref $REF -info $INDEX", 2, "cannot be combined with build flag(s) -ref"},
	{"casa-smem", "-ref", "-ref $REF -reads $READS -quiet", 0, ""},
	{"casa-align", "-ref", "-ref $REF -reads $READS -out $OUT", 0, ""},
	{"casa-serve", "-ref", "-ref $REF -addr 127.0.0.1:0", 0, "drained, exiting"},
	{"casa-sim", "-ref", "-ref $REF -reads $READS", 0, ""},
	{"casa-index", "-ref", "-ref $REF -out $OUT", 0, ""},
	{"casa-smem", "-index", "-index $INDEX -reads $READS -quiet", 0, ""},
	{"casa-align", "-index", "-index $INDEX -reads $READS", 2, "-ref is required"},
	{"casa-serve", "-index", "-index $INDEX -addr 127.0.0.1:0", 0, "drained, exiting"},
	{"casa-sim", "-index", "-index $INDEX -reads $READS", 0, ""},
	{"casa-index", "-index", "-index $INDEX", 2, undefined},
	{"casa-smem", "conflicting -engine", "-index $INDEX -reads $READS -engine fmindex", 2, "-engine fmindex conflicts with "},
	{"casa-align", "conflicting -engine", "-ref $REF -index $INDEX -reads $READS -engine fm", 2, "-engine fmindex conflicts with "},
	{"casa-serve", "conflicting -engine", "-index $INDEX -engine fmindex", 2, "-engine fmindex conflicts with "},
	{"casa-sim", "conflicting -engine", "-index $INDEX -reads $READS -engine fmindex", 2, undefined},
	{"casa-index", "conflicting -engine", "-info $INDEX -engine fmindex", 2, "cannot be combined with build flag(s) -engine"},
	{"casa-smem", "conflicting -min-smem", "-index $INDEX -reads $READS -min-smem 25", 2, "-min-smem 25 conflicts with "},
	{"casa-align", "conflicting -min-smem", "-ref $REF -index $INDEX -reads $READS -min-smem 25", 2, undefined},
	{"casa-serve", "conflicting -min-smem", "-index $INDEX -min-smem 25", 2, "-min-smem 25 conflicts with "},
	{"casa-sim", "conflicting -min-smem", "-index $INDEX -reads $READS -min-smem 25", 2, "-min-smem 25 conflicts with "},
	{"casa-index", "conflicting -min-smem", "-info $INDEX -min-smem 25", 2, "cannot be combined with build flag(s) -min-smem"},
	{"casa-smem", "-verify with -index", "-index $INDEX -reads $READS -verify fmindex", 2, "-verify builds a second engine from the reference and needs -ref"},
	{"casa-align", "-verify with -index", "-ref $REF -index $INDEX -reads $READS -verify fmindex -out $OUT", 0, ""},
	{"casa-serve", "-verify with -index", "-index $INDEX -verify fmindex", 2, undefined},
	{"casa-sim", "-verify with -index", "-index $INDEX -reads $READS -verify fmindex", 2, undefined},
	{"casa-index", "-verify with -index", "-info $INDEX -verify fmindex", 2, undefined},
	{"casa-smem", "chromosome mismatch", "-ref $REF -index $OTHER -reads $READS", 2, "exactly one of -ref or -index"},
	{"casa-align", "chromosome mismatch", "-ref $REF -index $OTHER -reads $READS", 2, "does not match -ref"},
	{"casa-serve", "chromosome mismatch", "-ref $REF -index $OTHER", 2, "exactly one of -ref or -index"},
	{"casa-sim", "chromosome mismatch", "-ref $REF -index $OTHER -reads $READS", 2, "exactly one of -ref or -index"},
	{"casa-index", "chromosome mismatch", "-ref $REF -info $OTHER", 2, "cannot be combined with build flag(s) -ref"},
	{"casa-smem", "unknown engine", "-ref $REF -reads $READS -engine nope", 2, `unknown engine "nope"`},
	{"casa-align", "unknown engine", "-ref $REF -reads $READS -engine nope", 2, `unknown engine "nope"`},
	{"casa-serve", "unknown engine", "-ref $REF -engine nope", 2, `unknown engine "nope"`},
	{"casa-sim", "unknown engine", "-ref $REF -reads $READS -engine nope", 2, undefined},
	{"casa-index", "unknown engine", "-ref $REF -engine nope -out $OUT", 2, `unknown engine "nope"`},
}

const undefined = "flag provided but not defined"

// ConflictMatrix runs command name through every row of the matrix,
// asserting the exit code and an error substring. casa-serve only
// returns once ctx is done, so its caller passes a cancelled one.
func ConflictMatrix(t *testing.T, ctx context.Context, name string, run cli.RunFunc) {
	f := NewFixture(t)
	rows := 0
	for _, want := range matrix {
		if want.cmd != name {
			continue
		}
		rows++
		t.Run(want.row, func(t *testing.T) {
			code, _, stderr := f.Run(ctx, run, want.args)
			if code != want.code || !strings.Contains(stderr, want.msg) {
				t.Errorf("%s %s: exit %d, want %d with %q in stderr:\n%s", name, want.args, code, want.code, want.msg, stderr)
			}
		})
	}
	if rows != len(matrix)/5 {
		t.Errorf("%s has %d matrix rows, want %d", name, rows, len(matrix)/5)
	}
}
