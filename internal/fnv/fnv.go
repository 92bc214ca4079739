// Package fnv is the 64-bit FNV-1a folding shared by the engine's spec
// keys, the serve layer's strategy-grid hash and the fleet's rendezvous
// scheduler. One implementation matters here: the fleet routes cells to
// workers by comparing hashes computed on different coordinators, so a
// constant or folding-order mismatch between copies would silently break
// routing stability. Fold incrementally: h := fnv.Offset64, then chain
// U64/F64/Str/Bytes.
package fnv

import "math"

// FNV-1a parameters.
const (
	Offset64 uint64 = 14695981039346656037
	Prime64  uint64 = 1099511628211
)

// U64 folds v into h, least-significant byte first.
func U64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= Prime64
		v >>= 8
	}
	return h
}

// F64 folds a float64's exact bit pattern into h.
func F64(h uint64, f float64) uint64 { return U64(h, math.Float64bits(f)) }

// Str folds s into h, length-prefixed so concatenations cannot collide
// with shifted boundaries.
func Str(h uint64, s string) uint64 {
	h = U64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= Prime64
	}
	return h
}
