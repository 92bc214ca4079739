package fnv

import (
	"encoding/binary"
	stdfnv "hash/fnv"
	"math"
	"testing"
)

// reference is FNV-1a-64 from the standard library over b.
func reference(b []byte) uint64 {
	h := stdfnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// le8 is v's eight little-endian bytes, the order U64 folds them in.
func le8(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestPublishedVectors checks the parameters and the standard library
// reference against the published FNV-1a-64 test vectors.
func TestPublishedVectors(t *testing.T) {
	for in, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := reference([]byte(in)); got != want {
			t.Fatalf("FNV-1a-64(%q) = %#x, want %#x", in, got, want)
		}
	}
	if Offset64 != 0xcbf29ce484222325 || Prime64 != 0x100000001b3 {
		t.Fatalf("parameters %#x / %#x are not FNV-1a-64's", Offset64, Prime64)
	}
}

// TestFoldsMatchFNV1a pins every fold to FNV-1a-64 over the byte
// sequence it documents: U64 and F64 fold eight little-endian bytes; Str
// and Bytes fold the length that way, then the content.
func TestFoldsMatchFNV1a(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64} {
		if got, want := U64(Offset64, v), reference(le8(v)); got != want {
			t.Errorf("U64(%#x) = %#x, want %#x", v, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-3, math.Inf(1)} {
		if got, want := F64(Offset64, f), reference(le8(math.Float64bits(f))); got != want {
			t.Errorf("F64(%v) = %#x, want %#x", f, got, want)
		}
	}
	for _, s := range []string{"", "a", "foobar", "minife"} {
		want := reference(append(le8(uint64(len(s))), s...))
		if got := Str(Offset64, s); got != want {
			t.Errorf("Str(%q) = %#x, want %#x", s, got, want)
		}
	}
	// Chained folds continue from h exactly as one FNV-1a stream does.
	chain := U64(Str(Offset64, "minife"), 48)
	want := reference(append(append(le8(6), "minife"...), le8(48)...))
	if chain != want {
		t.Fatalf("chained fold = %#x, want %#x", chain, want)
	}
}

// TestLengthPrefixSeparatesBoundaries: the length prefix keeps "ab"+"c"
// and "a"+"bc" apart, the property the spec keys rely on.
func TestLengthPrefixSeparatesBoundaries(t *testing.T) {
	if Str(Str(Offset64, "ab"), "c") == Str(Str(Offset64, "a"), "bc") {
		t.Fatal("shifted string boundaries collide")
	}
}
