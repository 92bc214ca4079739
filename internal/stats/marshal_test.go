package stats

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"earlybird/internal/wire"
)

// TestMomentsBinaryRoundTrip: an unmarshalled Moments must answer every
// accessor bit-identically and keep accumulating as the original would.
func TestMomentsBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Moments
	for i := 0; i < 1000; i++ {
		m.Add(rng.NormFloat64()*3 + 10)
	}

	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Moments
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip changed state: %+v vs %+v", back, m)
	}

	// Continue accumulating on both sides: still identical.
	for i := 0; i < 100; i++ {
		x := rng.ExpFloat64()
		m.Add(x)
		back.Add(x)
	}
	if back != m {
		t.Fatalf("post-round-trip accumulation diverged: %+v vs %+v", back, m)
	}

	// Deterministic encoding.
	d2, _ := m.MarshalBinary()
	d3, _ := m.MarshalBinary()
	if string(d2) != string(d3) {
		t.Error("MarshalBinary is not deterministic")
	}
}

// TestMomentsBinaryEmpty: the zero accumulator survives the wire too.
func TestMomentsBinaryEmpty(t *testing.T) {
	var m Moments
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Moments
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.N() != 0 || !math.IsNaN(back.Mean()) {
		t.Fatalf("empty round trip: %+v", back)
	}
	back.Add(4) // must initialise min/max like a fresh accumulator
	if back.Min() != 4 || back.Max() != 4 {
		t.Fatalf("empty round trip broke min/max: %v %v", back.Min(), back.Max())
	}
}

// TestSketchBinaryRoundTrip: the decoded histogram is the original —
// same state, same quantile bits, same bytes — and keeps accumulating
// as the original does.
func TestSketchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q QuantileHistogram
	for i := 0; i < 5000; i++ {
		q.Add(26e-3 + 1e-3*rng.NormFloat64())
	}
	data, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileHistogram
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	sameHistogram(t, "decoded", &back, &q)
	if again, _ := back.MarshalBinary(); string(again) != string(data) {
		t.Fatal("decoded histogram re-encodes differently")
	}
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64() * 1e-2
		q.Add(x)
		back.Add(x)
	}
	sameHistogram(t, "after more samples", &back, &q)

	var empty, emptyBack QuantileHistogram
	data, _ = empty.MarshalBinary()
	if emptyBack.UnmarshalBinary(data) != nil || emptyBack.N() != 0 {
		t.Fatalf("empty histogram round trip: %x", data)
	}
	emptyBack.Add(4)
	if math.Abs(emptyBack.Quantile(0.5)-4) > 1e-9 {
		t.Fatal("decoded empty histogram does not accumulate")
	}
}

// TestSketchBinaryCorrupt: truncation and bad versions are rejected, not
// silently accepted — for the histogram and for Moments.
func TestSketchBinaryCorrupt(t *testing.T) {
	var q QuantileHistogram
	q.AddSlice([]float64{1, 2, 3, 4, 5})
	data, err := q.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, data[1:]...),
		"t-digest":    append([]byte{1}, data[1:]...),
		"truncated":   data[:len(data)-1],
		"trailing":    append(bytes.Clone(data), 0),
	}
	for name, b := range cases {
		var back QuantileHistogram
		if err := back.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	var m Moments
	if err := m.UnmarshalBinary(data[:2]); err == nil {
		t.Error("truncated Moments: expected error")
	}
	if err := m.UnmarshalBinary(append([]byte{42}, data[1:]...)); err == nil {
		t.Error("bad Moments version: expected error")
	}
}

// encodeHistogram writes a histogram encoding field by field: the
// header, then counts, each in countWidth(n) little-endian bytes.
func encodeHistogram(n uint64, level uint8, lo int64, span uint64, min, max float64, counts []uint64) []byte {
	var w wire.Writer
	w.U8(histogramCodecVersion)
	w.Uvarint(n)
	w.U8(level)
	w.Varint(lo)
	w.Uvarint(span)
	w.F64(min)
	w.F64(max)
	for _, c := range counts {
		for k := range countWidth(n) {
			w.U8(uint8(c >> (8 * k)))
		}
	}
	return w.Buf
}

// hostileHistograms are encodings that are well-formed varints but no
// set of samples produces, each with the text of the rule that must
// refuse it. All but the first few carry the header of the histogram of
// {0, 1 s} — level 21, bins 0 and 476 — so that the rule named is the
// one that fires.
func hostileHistograms() map[string]struct {
	enc  []byte
	want string
} {
	const span = 476 // (1e9 >> 21) - 0
	ends := func(first, last uint64) []uint64 {
		c := make([]uint64, span+1)
		c[0], c[span] = first, last
		return c
	}
	valid := encodeHistogram(2, 21, 0, span, 0, 1, ends(1, 1))
	wrapped := ends(1<<32-1, 1<<32-1)
	type hostile = struct {
		enc  []byte
		want string
	}
	return map[string]hostile{
		"level over 62":        {encodeHistogram(2, 63, 0, 0, 0, 1, []uint64{2}), "over 62"},
		"span of K":            {encodeHistogram(2, 21, 0, QuantileBins, 0, 1, nil), "not under"},
		"n over 2^63-1":        {encodeHistogram(1<<63, 21, 0, span, 0, 1, nil), "overflows"},
		"NaN max":              {encodeHistogram(2, 21, 0, span, 0, math.NaN(), ends(1, 1)), "range"},
		"min below lo":         {encodeHistogram(2, 21, 1, span-1, 0, 1, ends(1, 1)), "outside"},
		"max above hi":         {encodeHistogram(2, 21, 0, span-1, 0, 1, ends(1, 1)), "outside"},
		"min past -2^62":       {encodeHistogram(2, 62, -1, 1, -math.MaxFloat64, 1, []uint64{1, 1}), "not the least"},
		"level not least":      {encodeHistogram(2, 22, 0, 238, 0, 1, []uint64{1, 1}), "not the least"},
		"counts short of n":    {encodeHistogram(3, 21, 0, span, 0, 1, ends(1, 1)), "sum to"},
		"counts over n":        {encodeHistogram(2, 21, 0, span, 0, 1, ends(2, 1)), "sum to"},
		"counts wrap a uint32": {encodeHistogram(1<<33, 21, 0, span, 0, 1, wrapped), "sum to"},
		"empty last bin":       {encodeHistogram(2, 21, 0, span, 0, 1, ends(2, 0)), "end bin"},
		"empty first bin":      {encodeHistogram(2, 21, 0, span, 0, 1, ends(0, 2)), "end bin"},
		"truncated counts":     {valid[:len(valid)-1], "truncated"},
		"trailing bytes":       {append(bytes.Clone(valid), 0), "trailing"},
	}
}

// TestQuantileHistogramRefusesHostileState: the hand-built encoding of
// {0, 1 s} decodes, each hostile encoding is refused by its rule, and
// no decode allocates more than one set of counts (plus its error).
func TestQuantileHistogramRefusesHostileState(t *testing.T) {
	var ok QuantileHistogram
	ok.AddSlice([]float64{0, 1})
	good, _ := ok.MarshalBinary()
	c := make([]uint64, 477)
	c[0], c[476] = 1, 1
	if want := encodeHistogram(2, 21, 0, 476, 0, 1, c); !bytes.Equal(good, want) {
		t.Fatalf("the histogram of {0, 1 s} encodes as %x, want %x", good, want)
	}
	for name, h := range hostileHistograms() {
		var back QuantileHistogram
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := back.UnmarshalBinary(h.enc); err == nil || !strings.Contains(err.Error(), h.want) {
				t.Fatalf("%s: %v, want an error about %q", name, err, h.want)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4*QuantileBins+512 {
			t.Errorf("%s: %d bytes allocated per decode", name, per)
		}
	}
}

// TestSketchBinaryMergeEquivalence: merging decoded shard histograms is
// merging the originals — the property the fleet's coordinator relies
// on.
func TestSketchBinaryMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shards := make([]QuantileHistogram, 3)
	for i := range shards {
		for j := 0; j < 2000; j++ {
			shards[i].Add(rng.NormFloat64() * float64(i+1))
		}
	}
	var direct, viaWire QuantileHistogram
	for i := range shards {
		data, err := shards[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dec QuantileHistogram
		if err := dec.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		direct.Merge(&shards[i])
		viaWire.Merge(&dec)
	}
	sameHistogram(t, "via wire", &viaWire, &direct)
}
