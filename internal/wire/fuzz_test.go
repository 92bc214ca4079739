package wire

import (
	"bytes"
	"testing"
)

// FuzzUnseal feeds Unseal arbitrary buffers. It must never panic, and
// it allocates only the fixed-size message of an error; whatever it
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
		body, err := Unseal(data)
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
