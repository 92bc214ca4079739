// Binary codecs for the streaming accumulators, so shard-level state can
// travel over the fleet's /v1/shard wire and merge on the coordinator.
// Formats are versioned and value-preserving (see internal/wire): an
// unmarshalled accumulator continues exactly where the marshalled one
// stopped.

package stats

import (
	"fmt"
	"slices"

	"earlybird/internal/wire"
)

// Codec version bytes, bumped on any layout change.
const (
	momentsCodecVersion uint8 = 1
	sketchCodecVersion  uint8 = 1
)

// MarshalBinary encodes the accumulator's full state. The encoding is
// deterministic: equal accumulators marshal to equal bytes.
func (m *Moments) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.U8(momentsCodecVersion)
	w.I64(m.n)
	w.F64(m.mean)
	w.F64(m.m2)
	w.F64(m.m3)
	w.F64(m.m4)
	w.F64(m.minSeen)
	w.F64(m.maxSeen)
	if m.nonEmpty {
		w.U8(1)
	} else {
		w.U8(0)
	}
	return w.Buf, nil
}

// UnmarshalBinary replaces the accumulator's state with the decoded one.
func (m *Moments) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != momentsCodecVersion {
		return fmt.Errorf("stats: unknown Moments codec version %d", v)
	}
	var dec Moments
	dec.n = r.I64()
	dec.mean = r.F64()
	dec.m2 = r.F64()
	dec.m3 = r.F64()
	dec.m4 = r.F64()
	dec.minSeen = r.F64()
	dec.maxSeen = r.F64()
	dec.nonEmpty = r.U8() != 0
	if err := r.Finish("Moments"); err != nil {
		return err
	}
	*m = dec
	return nil
}

// MarshalBinary encodes the sketch; it is AppendBinary(nil).
func (q *QuantileSketch) MarshalBinary() ([]byte, error) { return q.AppendBinary(nil) }

// BinarySize returns the length of the sketch's encoding. Like
// AppendBinary it compresses buffered values first.
func (q *QuantileSketch) BinarySize() int {
	q.flush()
	return 37 + 16*len(q.centroids)
}

// AppendBinary appends the sketch's encoding to b. Buffered values are
// compressed first (a state change Quantile performs anyway), so the
// encoding holds only centroids and the encoded sketch answers every
// Quantile call exactly as the original would have.
func (q *QuantileSketch) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer{Buf: slices.Grow(b, q.BinarySize())}
	w.U8(sketchCodecVersion)
	w.F64(q.compression)
	w.I64(q.n)
	w.F64(q.minSeen)
	w.F64(q.maxSeen)
	w.U32(uint32(len(q.centroids)))
	for _, c := range q.centroids {
		w.F64(c.mean)
		w.I64(c.count)
	}
	return w.Buf, nil
}

// UnmarshalBinary replaces the sketch's state with the decoded one. The
// receiver may be a zero-value sketch: the compression comes off the
// wire.
func (q *QuantileSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != sketchCodecVersion {
		return fmt.Errorf("stats: unknown QuantileSketch codec version %d", v)
	}
	var dec QuantileSketch
	dec.compression = r.F64()
	dec.n = r.I64()
	dec.minSeen = r.F64()
	dec.maxSeen = r.F64()
	nc := r.U32()
	if r.Err() == nil && uint64(nc)*16 > uint64(r.Remaining()) {
		return fmt.Errorf("stats: corrupt centroid count %d (%d bytes left)", nc, r.Remaining())
	}
	if nc > 0 {
		dec.centroids = make([]centroid, nc)
		for i := range dec.centroids {
			dec.centroids[i] = centroid{mean: r.F64(), count: r.I64()}
		}
	}
	if err := r.Finish("QuantileSketch"); err != nil {
		return err
	}
	if dec.compression <= 0 {
		return fmt.Errorf("stats: decoded sketch has non-positive compression %g", dec.compression)
	}
	var total int64
	for _, c := range dec.centroids {
		if c.count <= 0 {
			return fmt.Errorf("stats: decoded sketch has non-positive centroid weight %d", c.count)
		}
		total += c.count
	}
	if total != dec.n {
		return fmt.Errorf("stats: decoded sketch centroid mass %d does not match n %d", total, dec.n)
	}
	*q = dec
	return nil
}
