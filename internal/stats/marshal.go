// Binary codecs for the streaming accumulators, so shard-level state can
// travel over the fleet's /v1/shard wire and merge on the coordinator.
// Formats are versioned and value-preserving (see internal/wire): an
// unmarshalled accumulator continues exactly where the marshalled one
// stopped.

package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"earlybird/internal/wire"
)

// Codec version bytes, bumped on any layout change.
const (
	momentsCodecVersion uint8 = 1
	// histogramCodecVersion starts at 2: version 1 was the t-digest the
	// histogram replaced, whose encodings it refuses.
	histogramCodecVersion uint8 = 2
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

// MarshalBinary encodes the histogram; it is AppendBinary(nil).
func (h *QuantileHistogram) MarshalBinary() ([]byte, error) { return h.AppendBinary(nil) }

// countWidth is the number of bytes each count of a histogram of n
// samples takes on the wire: 1, 2 or 4, the fewest that hold n and so
// any one count. It depends on n alone, so a histogram's encoded size
// is known without reading its counts.
func countWidth(n uint64) int {
	switch {
	case n <= math.MaxUint8:
		return 1
	case n <= math.MaxUint16:
		return 2
	}
	return 4
}

// BinarySize returns the length of the histogram's encoding, in time
// independent of its counts.
func (h *QuantileHistogram) BinarySize() int {
	size := 1 + varintLen(uint64(h.n))
	if h.n == 0 {
		return size
	}
	lo, hi := h.bins()
	return size + 1 + varintLen(uint64(lo<<1)^uint64(lo>>63)) + varintLen(uint64(hi-lo)) + 16 +
		int(hi-lo+1)*countWidth(uint64(h.n))
}

// varintLen is the number of bytes wire.Writer.Uvarint writes for v.
func varintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendBinary appends the histogram's encoding to b: the version and
// the count n, then — when non-empty — the level, the lowest occupied
// bin lo and the span to the highest at that level, the exact min and
// max, and the counts of bins lo..lo+span, each in countWidth(n)
// little-endian bytes. n, lo and span are varints. Equal histograms
// encode to equal bytes.
func (h *QuantileHistogram) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer{Buf: b}
	w.U8(histogramCodecVersion)
	w.Uvarint(uint64(h.n))
	if h.n == 0 {
		return w.Buf, nil
	}
	lo, hi := h.bins()
	w.U8(h.level)
	w.Varint(lo)
	w.Uvarint(uint64(hi - lo))
	w.F64(h.min)
	w.F64(h.max)
	bins, width := int(hi-lo+1), countWidth(uint64(h.n))
	at := len(w.Buf)
	w.Buf = slices.Grow(w.Buf, bins*width)[:at+bins*width]
	out := w.Buf[at:]
	switch width { // a loop per width keeps each one tight
	case 1:
		for i := range out {
			out[i] = byte(h.counts[(lo+int64(i))&slotMask])
		}
	case 2:
		for i := range bins {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(h.counts[(lo+int64(i))&slotMask]))
		}
	default:
		for i := range bins {
			binary.LittleEndian.PutUint32(out[4*i:], h.counts[(lo+int64(i))&slotMask])
		}
	}
	return w.Buf, nil
}

// UnmarshalBinary replaces the histogram's state with the decoded one.
// It accepts only what AppendBinary writes for some set of samples: a
// level of at most 62 that is the least for the range, a span under
// QuantileBins, a min and max (not NaN) whose bins are lo and lo+span,
// occupied end bins, and counts that sum to n. It takes at most one
// set of QuantileBins counts, from the pool Release fills.
func (h *QuantileHistogram) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != histogramCodecVersion {
		return fmt.Errorf("stats: unknown QuantileHistogram codec version %d", v)
	}
	var dec QuantileHistogram
	n := r.Uvarint()
	if n == 0 {
		if err := r.Finish("QuantileHistogram"); err != nil {
			return err
		}
		*h = dec
		return nil
	}
	level := r.U8()
	lo := r.Varint()
	span := r.Uvarint()
	dec.min, dec.max = r.F64(), r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	hi := lo + int64(min(span, QuantileBins))
	switch {
	case n > math.MaxInt64:
		return fmt.Errorf("stats: histogram count %d overflows", n)
	case level > 62:
		return fmt.Errorf("stats: histogram level %d over 62", level)
	case span >= QuantileBins:
		return fmt.Errorf("stats: histogram span %d not under %d bins", span, QuantileBins)
	case !(dec.min <= dec.max): // NaN included
		return fmt.Errorf("stats: histogram range [%v, %v]", dec.min, dec.max)
	case binOf(dec.min)>>level != lo || binOf(dec.max)>>level != hi:
		return fmt.Errorf("stats: histogram min %v or max %v outside [lo, hi] = [%d, %d] at level %d",
			dec.min, dec.max, lo, hi, level)
	case levelFor(binOf(dec.min), binOf(dec.max), 0) != level:
		return fmt.Errorf("stats: histogram level %d is not the least for its range", level)
	}
	bins, width := int(span+1), countWidth(n)
	raw := r.Take(bins * width)
	if err := r.Finish("QuantileHistogram"); err != nil {
		return err
	}
	dec.n, dec.level = int64(n), level
	dec.counts = newCounts()
	var total uint64
	switch width {
	case 1:
		for i, c := range raw {
			dec.counts[(lo+int64(i))&slotMask] = uint32(c)
			total += uint64(c)
		}
	case 2:
		for i := range bins {
			c := binary.LittleEndian.Uint16(raw[2*i:])
			dec.counts[(lo+int64(i))&slotMask] = uint32(c)
			total += uint64(c)
		}
	default:
		for i := range bins {
			c := binary.LittleEndian.Uint32(raw[4*i:])
			dec.counts[(lo+int64(i))&slotMask] = c
			total += uint64(c)
		}
	}
	var err error
	switch {
	case dec.counts[lo&slotMask] == 0 || dec.counts[hi&slotMask] == 0:
		err = fmt.Errorf("stats: histogram end bin %d or %d empty", lo, hi)
	case total != n:
		err = fmt.Errorf("stats: histogram counts sum to %d, not n = %d", total, n)
	}
	if err != nil {
		dec.Release()
		return err
	}
	*h = dec
	return nil
}
