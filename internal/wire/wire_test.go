package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sample is one value of every Writer method, written and read back in
// this order by encodeSample and decodeSample.
type sample struct {
	u8    uint8
	u32   uint32
	u64   uint64
	i64   int64
	f64s  []float64
	bytes []byte
	empty []byte
	str   string
}

var refSample = sample{
	u8: 0xfe, u32: 0xdeadbeef, u64: 1<<63 | 12345, i64: -42,
	f64s:  []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.MaxFloat64, -1.5},
	bytes: []byte{0, 1, 2, 255},
	empty: []byte{},
	str:   "minife+burst",
}

func encodeSample(s sample) []byte {
	var w Writer
	w.U8(s.u8)
	w.U32(s.u32)
	w.U64(s.u64)
	w.I64(s.i64)
	for _, f := range s.f64s {
		w.F64(f)
	}
	w.Bytes(s.bytes)
	w.Bytes(s.empty)
	w.Str(s.str)
	return w.Buf
}

func decodeSample(r *Reader) sample {
	s := sample{u8: r.U8(), u32: r.U32(), u64: r.U64(), i64: r.I64()}
	for range refSample.f64s {
		s.f64s = append(s.f64s, r.F64())
	}
	s.bytes = r.Bytes()
	s.empty = r.Bytes()
	s.str = r.Str()
	return s
}

// TestRoundTripEveryMethod writes one value with every Writer method
// and reads it back with the matching Reader method: integers exactly,
// floats as their exact bit patterns (NaN payload and -0 included).
func TestRoundTripEveryMethod(t *testing.T) {
	r := NewReader(encodeSample(refSample))
	got := decodeSample(r)
	if err := r.Finish("sample"); err != nil {
		t.Fatal(err)
	}
	if got.u8 != refSample.u8 || got.u32 != refSample.u32 || got.u64 != refSample.u64 || got.i64 != refSample.i64 {
		t.Fatalf("integers: got %+v", got)
	}
	for i, f := range refSample.f64s {
		if math.Float64bits(got.f64s[i]) != math.Float64bits(f) {
			t.Errorf("F64 %v: got bits %#x, want %#x", f, math.Float64bits(got.f64s[i]), math.Float64bits(f))
		}
	}
	if !bytes.Equal(got.bytes, refSample.bytes) || len(got.empty) != 0 || got.str != refSample.str {
		t.Fatalf("byte fields: got %q %q %q", got.bytes, got.empty, got.str)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d after a full decode", r.Remaining())
	}
}

// TestTruncationSetsErr cuts the encoding at every length short of the
// full one: the sticky error must be set, every read after it returns
// zero values, Remaining reports 0 and Finish returns the error.
func TestTruncationSetsErr(t *testing.T) {
	full := encodeSample(refSample)
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		decodeSample(r)
		if r.Err() == nil {
			t.Fatalf("cut at %d/%d bytes: no error", n, len(full))
		}
		if r.U64() != 0 || r.Bytes() != nil || r.Remaining() != 0 {
			t.Fatalf("cut at %d: reads after the error are not zero", n)
		}
		if err := r.Finish("sample"); err != r.Err() {
			t.Fatalf("cut at %d: Finish = %v, want the sticky %v", n, err, r.Err())
		}
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := NewReader(append(encodeSample(refSample), 0))
	decodeSample(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Finish("sample"); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Finish = %v, want a trailing-bytes error", err)
	}
}

// TestBytesRejectsOversizedLength: a length prefix beyond the remaining
// input fails before any slice of that size is taken.
func TestBytesRejectsOversizedLength(t *testing.T) {
	var w Writer
	w.U32(math.MaxUint32)
	w.U8(7)
	r := NewReader(w.Buf)
	if b := r.Bytes(); b != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "corrupt length prefix") {
		t.Fatalf("Bytes = %v, err %v; want nil and a corrupt-length error", b, r.Err())
	}
}

// TestSealUnseal: a sealed buffer unseals to its payload; a flipped bit
// anywhere, a truncation, or a buffer shorter than the checksum fails.
func TestSealUnseal(t *testing.T) {
	w := Writer{Buf: encodeSample(refSample)}
	payload := bytes.Clone(w.Buf)
	sealed := w.Seal()
	body, err := Unseal(sealed)
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("Unseal = %v, %v", body, err)
	}
	for i := range sealed {
		bad := bytes.Clone(sealed)
		bad[i] ^= 0x10
		if _, err := Unseal(bad); err == nil {
			t.Fatalf("bit flip at byte %d unsealed", i)
		}
	}
	if _, err := Unseal(sealed[:len(sealed)-1]); err == nil {
		t.Fatal("truncated seal unsealed")
	}
	if _, err := Unseal(sealed[:7]); err == nil || !strings.Contains(err.Error(), "too short") {
		t.Fatalf("7-byte seal: %v", err)
	}
}

// TestBeginEndBytesMatchesBytes: a field appended in place between
// BeginBytes and EndBytes encodes exactly as Bytes encodes it, empty
// and after a prefix alike.
func TestBeginEndBytesMatchesBytes(t *testing.T) {
	for _, field := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xab}, 300)} {
		var want, got Writer
		want.U8(9)
		want.Bytes(field)
		got.U8(9)
		at := got.BeginBytes()
		got.Buf = append(got.Buf, field...)
		got.EndBytes(at)
		if !bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("%d-byte field: in place %x, Bytes %x", len(field), got.Buf, want.Buf)
		}
	}
}
