package wire

import (
	"bytes"
	"testing"
	"time"
)

// maxDecodeWall is the per-input wall bound of FuzzUnseal. Unseal is one
// CRC pass over its input, microseconds for anything the fuzzer builds,
// so a second is four orders of magnitude of headroom for the race
// detector and a loaded machine while still failing a decode whose work
// is not bounded by its input length, the class of the bin-timeout hang.
const maxDecodeWall = time.Second

// FuzzUnseal feeds Unseal arbitrary buffers. It must never panic, and
// it allocates only the fixed-size message of an error, nor take longer
// than maxDecodeWall; whatever it
// accepts — without allocating — must be the buffer minus its trailer,
// and sealing that payload again must reproduce the buffer. Seeds are
// sealed encodings of every Writer method and an empty payload, plus
// the sealed shard and store records that testdata/fuzz/FuzzUnseal
// holds.
func FuzzUnseal(f *testing.F) {
	w := Writer{Buf: encodeSample(refSample)}
	f.Add(w.Seal())
	var empty Writer
	f.Add(empty.Seal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		body, err := Unseal(data)
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("Unseal took %v on %d bytes, over the %v bound", wall, len(data), maxDecodeWall)
		}
		if err != nil {
			return
		}
		if allocs := testing.AllocsPerRun(1, func() { _, _ = Unseal(data) }); allocs != 0 {
			t.Fatalf("Unseal allocated %v times accepting %d bytes", allocs, len(data))
		}
		if len(body) != len(data)-SealSize || !bytes.Equal(body, data[:len(body)]) {
			t.Fatalf("Unseal returned %d bytes of a %d-byte buffer", len(body), len(data))
		}
		again := Writer{Buf: bytes.Clone(body)}
		if !bytes.Equal(again.Seal(), data) {
			t.Fatal("resealing the payload does not reproduce the buffer")
		}
	})
}
