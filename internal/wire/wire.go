// Package wire is the little-endian binary codec under the mergeable
// accumulators' MarshalBinary/UnmarshalBinary implementations
// (internal/stats, internal/analysis) and the sealed records built from
// them (the fleet's result store, /v1/shard answers). One shared
// implementation matters: the encodings travel between fleet workers
// and coordinators, so an endianness or bounds-handling fix must not
// land in one copy and miss another. Floats are encoded as exact bit
// patterns — decoding reproduces them bit-for-bit.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Writer appends fixed-width little-endian values to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)    { w.Buf = append(w.Buf, v) }
func (w *Writer) U32(v uint32)  { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)  { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Uvarint writes v as an unsigned LEB128 varint (1 to 10 bytes).
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }

// Varint writes v zig-zag encoded as a varint, as binary.AppendVarint.
func (w *Writer) Varint(v int64) { w.Buf = binary.AppendVarint(w.Buf, v) }

// Bytes writes b with a u32 length prefix.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Str writes s with a u32 length prefix.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// BeginBytes reserves a u32 length prefix and returns its offset; the
// caller appends the field's bytes to Buf and calls EndBytes, which
// back-patches the prefix. The result is byte-identical to Bytes
// without building the field in a buffer of its own.
func (w *Writer) BeginBytes() int {
	at := len(w.Buf)
	w.U32(0)
	return at
}

// EndBytes back-patches the prefix BeginBytes reserved at offset at
// with the number of bytes appended since.
func (w *Writer) EndBytes(at int) {
	binary.LittleEndian.PutUint32(w.Buf[at:], uint32(len(w.Buf)-at-4))
}

// Reader consumes what Writer produced, failing sticky on truncation:
// after the first error every read returns zero values and Finish
// reports the error.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// fail records the first decode error and drops the unread input, so
// every later read sees nothing to decode.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Err returns the sticky decode error, nil while decoding is healthy.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many undecoded bytes are left (0 after an
// error).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf)
}

// Take reads the next n bytes as they are; the slice aliases the input.
func (r *Reader) Take(n int) []byte { return r.take(n) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail(fmt.Errorf("wire: truncated state (%d bytes left, need %d)", len(r.buf), n))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads what Writer.Uvarint wrote. Only the minimal encoding is
// accepted, so every value has one encoding and a decoded state
// re-encodes to the bytes it came from.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.fail(fmt.Errorf("wire: corrupt varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads what Writer.Varint wrote, minimal encodings only.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads one length-prefixed byte slice, guarding against length
// prefixes that overrun the remaining input.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("wire: corrupt length prefix %d (%d bytes left)", n, len(r.buf)))
		return nil
	}
	return r.take(int(n))
}

// Str reads one length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Finish returns the sticky decode error, or an error if trailing bytes
// remain after what should have been the complete encoding.
func (r *Reader) Finish(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %s state", len(r.buf), what)
	}
	return nil
}

// castagnoli is the CRC-32C table: hash/crc32 computes it with the
// SSE4.2/ARMv8 CRC instructions where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealSize is the length of the trailer Seal appends.
const SealSize = 8

// Seal appends an 8-byte trailer — the u32 payload length, then a u32
// CRC-32C of everything before the CRC (payload and length) — and
// returns the finished buffer. Every encoding that crosses a trust
// boundary ends with it: the fleet's on-disk result store and the
// /v1/shard records a worker sends back. Unseal rejects bit rot, torn
// writes and truncated bodies before any field decodes. Payloads are
// bounded well below 4 GiB by their producers; a longer one would wrap
// the length and fail Unseal.
func (w *Writer) Seal() []byte { return w.SealFrom(0) }

// SealFrom is Seal over the payload that starts at offset at of Buf, so
// a sealed record can follow other bytes in one buffer; it returns all
// of Buf.
func (w *Writer) SealFrom(at int) []byte {
	w.U32(uint32(len(w.Buf) - at))
	w.U32(crc32.Checksum(w.Buf[at:], castagnoli))
	return w.Buf
}

// Unseal verifies and strips a Seal trailer, returning the payload a
// Reader can decode (a subslice of data, not a copy). Any truncation or
// mutation of a sealed buffer fails here.
func Unseal(data []byte) ([]byte, error) {
	if len(data) < SealSize {
		return nil, fmt.Errorf("wire: sealed payload too short (%d bytes)", len(data))
	}
	n := len(data) - SealSize
	if stored := binary.LittleEndian.Uint32(data[n:]); uint64(stored) != uint64(n) {
		return nil, fmt.Errorf("wire: sealed length %d does not match the %d-byte payload", stored, n)
	}
	want := binary.LittleEndian.Uint32(data[n+4:])
	if got := crc32.Checksum(data[:n+4], castagnoli); got != want {
		return nil, fmt.Errorf("wire: checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return data[:n], nil
}
