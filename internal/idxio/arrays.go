package idxio

import (
	"encoding/binary"
	"fmt"
	"io"

	"casa/internal/dna"
)

// Bulk array codecs for engine payloads. Every persisting engine stores
// a base sequence and int32 arrays and nothing else, so these two pairs
// are the whole of their on-disk encoding below the container:
//
//	WriteBases:  u64 n | ceil(n/4) bytes, base i in bits 2(i%4) of byte i/4
//	WriteInt32s: len(v) little-endian i32 words, no length (the reader
//	             derives it)
//
// Both stream through a bounded staging chunk. On read, a slice is sized
// up front only when the section still holds that many bytes; any other
// reader grows it chunk by chunk, so a length that a corrupted stream
// merely claims cannot drive a large allocation.

// arrayChunk bounds the staging buffer on both sides.
const arrayChunk = 1 << 16

// WriteBases writes seq's length and its bases packed four to a byte.
func WriteBases(w io.Writer, seq dna.Sequence) error {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, arrayChunk), uint64(len(seq)))
	for i := 0; i < len(seq); i += 4 {
		var b byte
		for j := 0; j < 4 && i+j < len(seq); j++ {
			b |= byte(seq[i+j]) << uint(2*j)
		}
		if buf = append(buf, b); len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadBases reads a WriteBases sequence, rejecting one longer than limit
// bases before reading any of it.
func ReadBases(r io.Reader, limit int) (dna.Sequence, error) {
	var u [8]byte
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return nil, fmt.Errorf("reading sequence length: %w", err)
	}
	n64 := binary.LittleEndian.Uint64(u[:])
	if n64 > uint64(limit) {
		return nil, fmt.Errorf("sequence length %d exceeds the limit of %d bases", n64, limit)
	}
	n := int(n64)
	// Whole bytes decode four bases each; the padding is sliced off.
	seq := make(dna.Sequence, 0, capFor(r, (n+3)&^3, (n+3)/4))
	var chunk [arrayChunk]byte
	for left := (n + 3) / 4; left > 0; {
		c := chunk[:min(left, len(chunk))]
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, fmt.Errorf("reading packed bases: %w", err)
		}
		for _, b := range c {
			seq = append(seq, dna.Base(b&3), dna.Base(b>>2&3), dna.Base(b>>4&3), dna.Base(b>>6))
		}
		left -= len(c)
	}
	return seq[:n], nil
}

// WriteInt32s writes v as little-endian 32-bit words.
func WriteInt32s(w io.Writer, v []int32) error {
	buf := make([]byte, 0, arrayChunk)
	for _, x := range v {
		if buf = binary.LittleEndian.AppendUint32(buf, uint32(x)); len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadInt32s reads n WriteInt32s words.
func ReadInt32s(r io.Reader, n int) ([]int32, error) {
	v := make([]int32, 0, capFor(r, n, 4*n))
	var chunk [arrayChunk]byte
	for left := 4 * n; left > 0; {
		c := chunk[:min(left, len(chunk))]
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, fmt.Errorf("reading %d-word array: %w", n, err)
		}
		for off := 0; off < len(c); off += 4 {
			v = append(v, int32(binary.LittleEndian.Uint32(c[off:])))
		}
		left -= len(c)
	}
	return v, nil
}

// capFor is the capacity to allocate for n elements stored in size bytes:
// all n when r is a section with at least size bytes left, else at most
// one chunk's worth.
func capFor(r io.Reader, n, size int) int {
	if s, ok := r.(*sectionReader); ok && int64(size) <= s.remaining {
		return n
	}
	return min(n, arrayChunk)
}
