package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casa/internal/engine"
)

// writeIndex builds engine name over the FASTA at ref with opt and
// writes its index into a temporary file.
func writeIndex(t *testing.T, ref, name string, opt engine.Options) string {
	t.Helper()
	src := Source{Ref: ref, Engine: name, Options: opt}
	o, err := src.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf, o.Engine, opt, o.Header.Chromosomes); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.casaidx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResolveBuildFlags checks every build flag of the rule table under
// -index: an explicit value equal to the header's passes (aliases
// included), a different one or one the header does not record is a
// usage error naming the flag, both values and the file.
func TestResolveBuildFlags(t *testing.T) {
	ref := writeRef(t)
	idx := writeIndex(t, ref, "sharded:cpu", engine.Options{MinSMEM: 21, Partition: 4096, Shards: 2, ShardOverlap: 300})
	cases := []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-engine", "sharded:cpu", "-min-smem", "21", "-partition", "4096", "-shards", "2", "-shard-overlap", "300"}, ""},
		{[]string{"-engine", "sharded:bwa"}, ""},
		{[]string{"-engine", "cpu"}, "-engine cpu conflicts with " + idx + ", whose header records sharded:cpu"},
		{[]string{"-min-smem", "19"}, "-min-smem 19 conflicts with " + idx + ", whose header records 21"},
		{[]string{"-partition", "0"}, "-partition 0 conflicts with " + idx + ", whose header records 4096"},
		{[]string{"-shards", "3"}, "-shards 3 conflicts with " + idx + ", whose header records 2"},
		{[]string{"-shard-overlap", "200"}, "-shard-overlap 200 conflicts with " + idx + ", whose header records 300"},
		{[]string{"-k", "19"}, "-k 19 conflicts with " + idx + ": its header does not record -k"},
		{[]string{"-naive"}, "-naive true conflicts with " + idx + ": its header does not record -naive"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		src := Source{Index: idx}
		fs.StringVar(&src.Engine, "engine", "casa", "")
		for _, name := range []string{"min-smem", "partition", "shards", "shard-overlap", "k"} {
			fs.Int(name, 0, "")
		}
		fs.Bool("naive", false, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := src.Resolve(fs)
		var ue *UsageError
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want == "" && src.Engine != "sharded:cpu":
			t.Errorf("%v: engine %q, want the header's sharded:cpu", tc.args, src.Engine)
		case tc.want != "" && (!errors.As(err, &ue) || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want a usage error containing %q", tc.args, err, tc.want)
		}
	}
}
