package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/readsim"
	"casa/internal/seqio"
)

// The reference every workload shares. It is fixed rather than drawn
// from the workload seed so its three indexes (about 560 MB, 15 s to
// build) are built once per checkout and reused by every run; the reads,
// which are what the seed varies, are regenerated on every run.
const (
	refBases  = 8_000_000
	refChroms = 4
	refSeed   = 20231028
	readLen   = 101
)

// Index files of the shared reference, by engine.
var indexFiles = map[string]string{
	"casa":         "casa.idx",
	"fmindex":      "fmindex.idx",
	"sharded:casa": "sharded-casa.idx",
}

// shardCount is the sharded:casa index's shard count.
const shardCount = 4

// reference is the generated genome: its FASTA records and the
// spacer-free concatenation the reads are sampled from.
type reference struct {
	recs   []seqio.Record
	concat dna.Sequence
	names  []string
	lens   []int
	fasta  []byte
	bases  int
}

func genReference() (*reference, error) {
	r := &reference{}
	per := refBases / refChroms
	for c := 0; c < refChroms; c++ {
		g := readsim.GenerateReference(readsim.DefaultGenome(per, refSeed+int64(c)*13))
		name := fmt.Sprintf("chr%d", c+1)
		r.recs = append(r.recs, seqio.Record{Name: name, Seq: g})
		r.concat = append(r.concat, g...)
		r.names = append(r.names, name)
		r.lens = append(r.lens, len(g))
	}
	r.bases = len(r.concat)
	var buf bytes.Buffer
	if err := seqio.WriteFasta(&buf, r.recs, 70); err != nil {
		return nil, err
	}
	r.fasta = buf.Bytes()
	return r, nil
}

// manifest records what the cache holds: the reference's CRC, the
// SHA-256 of the casa-index binary that built the indexes and, per
// index, the section catalogue (names, sizes, CRCs) casa-idx/v1 wrote.
// The binary's hash stands for the code that builds and encodes every
// index (Go builds are reproducible), so a change to it rebuilds them all
// even when .bench_build outlives a change of checked-out source.
type manifest struct {
	RefCRC     uint32                         `json:"ref_crc"`
	IndexerSHA string                         `json:"indexer_sha256"`
	Indexes    map[string][]idxio.SectionInfo `json:"indexes"`
}

// cache is the per-checkout input directory.
type cache struct {
	dir     string
	bin     string
	ref     *reference
	refPath string
	man     manifest
	perBase map[string]float64 // index file bytes per reference base, by engine
}

// openCache generates the reference and makes sure ref.fa and the
// requested indexes are present and intact. An index is trusted only if
// it was built from the same reference by the same casa-index binary, a
// full checksum walk (idxio.ReadInfo) succeeds and its section catalogue
// equals the one recorded when it was built; anything else is rebuilt
// through casa-index.
func openCache(dir, bin string, engines ...string) (*cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ref, err := genReference()
	if err != nil {
		return nil, err
	}
	c := &cache{dir: dir, bin: bin, ref: ref, refPath: filepath.Join(dir, "ref.fa"), perBase: map[string]float64{}}
	refCRC := crc32.ChecksumIEEE(ref.fasta)
	indexer, err := fileSHA256(filepath.Join(bin, "casa-index"))
	if err != nil {
		return nil, err
	}
	if b, err := os.ReadFile(c.path("manifest.json")); err == nil {
		if json.Unmarshal(b, &c.man) != nil || c.man.RefCRC != refCRC || c.man.IndexerSHA != indexer {
			c.man = manifest{}
		}
	}
	if c.man.Indexes == nil {
		c.man.Indexes = map[string][]idxio.SectionInfo{}
	}
	if old, err := os.ReadFile(c.refPath); err != nil || !bytes.Equal(old, ref.fasta) {
		if err := writeAtomic(c.refPath, ref.fasta); err != nil {
			return nil, err
		}
		c.man = manifest{Indexes: map[string][]idxio.SectionInfo{}}
	}
	c.man.RefCRC, c.man.IndexerSHA = refCRC, indexer
	for _, e := range engines {
		if err := c.ensureIndex(e); err != nil {
			return nil, err
		}
	}
	return c, writeJSON(c.path("manifest.json"), c.man)
}

func (c *cache) path(name string) string { return filepath.Join(c.dir, name) }

func (c *cache) indexPath(eng string) string { return c.path(indexFiles[eng]) }

func (c *cache) ensureIndex(eng string) error {
	p := c.indexPath(eng)
	if want, ok := c.man.Indexes[eng]; ok {
		if got, err := indexInfo(p); err == nil && sameSections(got, want) {
			return c.noteSize(eng)
		}
	}
	args := []string{"-ref", c.refPath, "-engine", eng, "-out", p}
	if eng == "sharded:casa" {
		args = append(args, "-shards", strconv.Itoa(shardCount))
	}
	cmd := exec.Command(filepath.Join(c.bin, "casa-index"), args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("casa-index %s: %v\n%s", eng, err, out)
	}
	got, err := indexInfo(p)
	if err != nil {
		return err
	}
	c.man.Indexes[eng] = got
	return c.noteSize(eng)
}

func (c *cache) noteSize(eng string) error {
	st, err := os.Stat(c.indexPath(eng))
	if err != nil {
		return err
	}
	c.perBase[eng] = float64(st.Size()) / float64(c.ref.bases)
	return nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func indexInfo(path string) ([]idxio.SectionInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, infos, err := idxio.ReadInfo(bufio.NewReaderSize(f, 1<<20))
	return infos, err
}

func sameSections(a, b []idxio.SectionInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readSet is one run's simulated reads, also written as FASTQ.
type readSet struct {
	reads   []readsim.Read
	seqs    []dna.Sequence
	names   []string
	path    string // the full FASTQ
	onePath string // a FASTQ holding only the first read, for set-up timing
}

// makeReads simulates the workload's reads from the seed and writes them.
func (c *cache) makeReads(w workload, seed int64) (*readSet, error) {
	reads := readsim.Simulate(c.ref.concat, readsim.ReadProfile{
		Length:  readLen,
		Count:   w.reads,
		Seed:    seed,
		MutRate: 0.001,
		ErrRate: w.errRate,
		RevComp: true,
	})
	rs := &readSet{
		reads:   reads,
		seqs:    readsim.Sequences(reads),
		path:    c.path(w.name + ".fq"),
		onePath: c.path(w.name + ".one.fq"),
	}
	for _, r := range reads {
		rs.names = append(rs.names, r.Name)
	}
	recs := readsim.Records(reads)
	for _, f := range []struct {
		path string
		recs []seqio.Record
	}{{rs.path, recs}, {rs.onePath, recs[:1]}} {
		var buf bytes.Buffer
		if err := seqio.WriteFastq(&buf, f.recs); err != nil {
			return nil, err
		}
		if err := writeAtomic(f.path, buf.Bytes()); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// fastqBatches renders reads as FASTQ request bodies of at most n reads.
func fastqBatches(reads []readsim.Read, n int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(reads); lo += n {
		var buf bytes.Buffer
		if err := seqio.WriteFastq(&buf, readsim.Records(reads[lo:min(lo+n, len(reads))])); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, b)
}

// since is seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
