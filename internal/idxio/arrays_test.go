package idxio

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"casa/internal/dna"
)

func TestBasesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 5, 4*arrayChunk - 1, 4*arrayChunk + 5} {
		seq := make(dna.Sequence, n)
		for i := range seq {
			seq[i] = dna.Base(rng.Intn(4))
		}
		var buf bytes.Buffer
		if err := WriteBases(&buf, seq); err != nil {
			t.Fatal(err)
		}
		if want := 8 + (n+3)/4; buf.Len() != want {
			t.Fatalf("n=%d: %d bytes written, want %d", n, buf.Len(), want)
		}
		got, err := ReadBases(&buf, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(seq) {
			t.Fatalf("n=%d: bases differ after the round trip", n)
		}
	}
}

// The packing is part of the on-disk format: base i sits in bits
// 2(i%4) of byte i/4, after a little-endian u64 length.
func TestBasesLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBases(&buf, dna.Sequence{0, 1, 2, 3, 2}); err != nil {
		t.Fatal(err)
	}
	want := []byte{5, 0, 0, 0, 0, 0, 0, 0, 0xE4, 0x02}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("layout % x, want % x", buf.Bytes(), want)
	}
}

func TestReadBasesRejectsOverLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBases(&buf, make(dna.Sequence, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBases(&buf, 9); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestInt32sRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, arrayChunk / 4, arrayChunk/4 + 3} {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(rng.Uint32())
		}
		var buf bytes.Buffer
		if err := WriteInt32s(&buf, v); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 4*n {
			t.Fatalf("n=%d: %d bytes written", n, buf.Len())
		}
		got, err := ReadInt32s(&buf, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read %d words", n, len(got))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("n=%d: word %d is %d, want %d", n, i, got[i], v[i])
			}
		}
	}
	if _, err := ReadInt32s(bytes.NewReader(make([]byte, 7)), 2); err == nil {
		t.Fatal("short array accepted")
	}
}

// A section that holds the claimed bytes is decoded into exactly-sized
// slices; any other reader only ever gets a chunk up front, so a lying
// length cannot force a large allocation.
func TestArrayAllocationTracksSection(t *testing.T) {
	words := make([]int32, 3*arrayChunk)
	seq := make(dna.Sequence, 4*arrayChunk+1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Engine: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("a", func(sw io.Writer) error {
		if err := WriteBases(sw, seq); err != nil {
			return err
		}
		return WriteInt32s(sw, words)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := r.Section("a")
	if err != nil {
		t.Fatal(err)
	}
	gotSeq, err := ReadBases(sec, len(seq))
	if err != nil {
		t.Fatal(err)
	}
	if cap(gotSeq) != (len(seq)+3)&^3 {
		t.Errorf("bases: capacity %d for %d bases", cap(gotSeq), len(seq))
	}
	gotWords, err := ReadInt32s(sec, len(words))
	if err != nil {
		t.Fatal(err)
	}
	if cap(gotWords) != len(words) {
		t.Errorf("words: capacity %d for %d words", cap(gotWords), len(words))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if got := capFor(bytes.NewReader(nil), 1<<30, 1<<32); got != arrayChunk {
		t.Errorf("plain reader: capacity %d for a claimed 2^30 elements", got)
	}
	if got := capFor(&sectionReader{remaining: 100}, 1<<30, 1<<32); got != arrayChunk {
		t.Errorf("short section: capacity %d for a claimed 2^30 elements", got)
	}
}
