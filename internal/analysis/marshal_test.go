package analysis

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/stats/normality"
	"earlybird/internal/wire"
	"earlybird/internal/workload"
)

// referenceMetricsEncoding is the metrics codec as it was before states
// were encoded in place: each sketch marshalled into a buffer of its
// own, then copied behind its length prefix.
func referenceMetricsEncoding(t *testing.T, a *MetricsAccumulator) []byte {
	t.Helper()
	var w wire.Writer
	w.U8(metricsCodecVersion)
	w.Str(a.app)
	w.F64(a.threshold)
	w.U32(uint32(len(a.trials)))
	for _, tr := range slices.Sorted(maps.Keys(a.trials)) {
		ta := a.trials[tr]
		w.I64(int64(tr))
		w.I64(ta.nProc)
		w.F64(ta.medianSum)
		w.F64(ta.reclSum)
		w.F64(ta.ratioSum)
		w.I64(ta.laggards)
		w.U32(uint32(len(ta.iters)))
		for _, iter := range slices.Sorted(maps.Keys(ta.iters)) {
			ip := ta.iters[iter]
			w.I64(int64(iter))
			w.I64(ip.n)
			w.F64(ip.sum)
			w.F64(ip.max)
		}
	}
	w.U32(uint32(len(a.sketches)))
	for _, iter := range slices.Sorted(maps.Keys(a.sketches)) {
		enc, err := a.sketches[iter].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		w.I64(int64(iter))
		w.Bytes(enc)
	}
	return w.Buf
}

// TestAppendBinaryMatchesReferenceEncoding pins the in-place encoders:
// MarshalBinary and AppendBinary after a prefix produce exactly the
// bytes of the copy-per-sketch encoding, BinarySize is their exact
// length, and the decoder reproduces them.
func TestAppendBinaryMatchesReferenceEncoding(t *testing.T) {
	cfg := cluster.Config{Trials: 2, Ranks: 3, Iterations: 9, Threads: 48, Seed: 5}
	for _, model := range []workload.Model{workload.DefaultMiniFE(), workload.DefaultMiniQMC()} {
		col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		app := model.Name()
		macc := NewMetricsAccumulator(app, DefaultLaggardThresholdSec)
		tacc := NewTable1Accumulator(app, normality.DefaultAlpha)
		NewKernel(macc, tacc).ObserveCursor(col.Cursor(), 0)

		size := macc.BinarySize()
		want := referenceMetricsEncoding(t, macc)
		got, err := macc.MarshalBinary()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalBinary differs from the reference encoding (err %v)", app, err)
		}
		prefix := []byte("prefix")
		appended, err := macc.AppendBinary(bytes.Clone(prefix))
		if err != nil || !bytes.Equal(appended, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("%s: AppendBinary after a prefix differs (err %v)", app, err)
		}
		if size != len(want) {
			t.Fatalf("%s: BinarySize %d, encoding %d bytes", app, size, len(want))
		}
		dec := new(MetricsAccumulator)
		if err := dec.UnmarshalBinary(got); err != nil {
			t.Fatal(err)
		}
		if again, _ := dec.MarshalBinary(); !bytes.Equal(again, got) {
			t.Fatalf("%s: decoded state re-encodes differently", app)
		}

		tstate, err := tacc.MarshalBinary()
		if err != nil || len(tstate) != tacc.BinarySize() {
			t.Fatalf("%s: Table 1 BinarySize %d, encoding %d bytes (err %v)", app, tacc.BinarySize(), len(tstate), err)
		}
	}
}

// TestUnmarshalRefusesNonCanonicalOrder: the metrics decoder accepts
// keys only in the strictly ascending order the encoder writes, so a
// duplicated or reordered trial is refused instead of overwriting or
// silently merging.
func TestUnmarshalRefusesNonCanonicalOrder(t *testing.T) {
	a := NewMetricsAccumulator("minife", DefaultLaggardThresholdSec)
	for trial := 0; trial < 2; trial++ {
		a.ObserveBlock(trial, 0, 0, []float64{1, 2, 3, 4})
	}
	enc, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Both trials carry the same one-iteration layout; the first trial
	// record starts after version, app, threshold and the trial count.
	start := 1 + 4 + len("minife") + 8 + 4
	const trialLen = 48 + 4 + 32
	first := enc[start : start+trialLen]
	second := enc[start+trialLen : start+2*trialLen]
	for name, swap := range map[string][]byte{
		"reordered":  slices.Concat(second, first),
		"duplicated": slices.Concat(first, first),
	} {
		bad := slices.Concat(enc[:start], swap, enc[start+2*trialLen:])
		if err := new(MetricsAccumulator).UnmarshalBinary(bad); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("%s trials: %v, want an out-of-order error", name, err)
		}
	}
}
