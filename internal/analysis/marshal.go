// Binary codecs for the streaming accumulators: the shard-level state
// the federation layer ships from workers to the coordinator
// (/v1/shard). Encodings are versioned and value-preserving (see
// internal/wire) — floats travel as their exact bit patterns, trials
// and iterations in sorted order — so marshalling is deterministic and
// an unmarshalled accumulator merges bit-identically to the original.

package analysis

import (
	"fmt"
	"maps"
	"slices"

	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/wire"
)

// Codec version bytes, bumped on any layout change.
const (
	metricsCodecVersion uint8 = 1
	table1CodecVersion  uint8 = 1
)

// MarshalBinary encodes the accumulator's full state; it is
// AppendBinary(nil).
func (a *MetricsAccumulator) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// BinarySize returns the length of the accumulator's encoding.
func (a *MetricsAccumulator) BinarySize() int {
	n := 1 + 4 + len(a.app) + 8 + 4
	for _, ta := range a.trials {
		n += 48 + 4 + 32*len(ta.iters)
	}
	n += 4
	for _, sk := range a.sketches {
		n += 8 + 4 + sk.BinarySize()
	}
	return n
}

// AppendBinary appends the accumulator's full state to b: identity
// (app, threshold), every per-trial partial and every per-iteration
// sketch, all in ascending order so equal accumulators encode to equal
// bytes. b grows once, to the exact size, and each sketch is encoded in
// place behind a back-patched length prefix.
func (a *MetricsAccumulator) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer{Buf: slices.Grow(b, a.BinarySize())}
	w.U8(metricsCodecVersion)
	w.Str(a.app)
	w.F64(a.threshold)

	w.U32(uint32(len(a.trials)))
	for _, t := range slices.Sorted(maps.Keys(a.trials)) {
		ta := a.trials[t]
		w.I64(int64(t))
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
		w.I64(int64(iter))
		at := w.BeginBytes()
		var err error
		if w.Buf, err = a.sketches[iter].AppendBinary(w.Buf); err != nil {
			return nil, err
		}
		w.EndBytes(at)
	}
	return w.Buf, nil
}

// UnmarshalBinary replaces the accumulator's state — identity included —
// with the decoded one. The receiver may come from NewMetricsAccumulator
// with any arguments; they are overwritten.
func (a *MetricsAccumulator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != metricsCodecVersion {
		return fmt.Errorf("analysis: unknown MetricsAccumulator codec version %d", v)
	}
	dec := MetricsAccumulator{
		app:       r.Str(),
		threshold: r.F64(),
		trials:    map[int]*trialAccum{},
		sketches:  map[int]*stats.QuantileSketch{},
	}
	// Keys must be strictly ascending, as AppendBinary writes them: that
	// rejects duplicates and makes every accepted encoding canonical.
	var prevTrial, prevIter int
	nTrials := r.U32()
	for i := uint32(0); i < nTrials && r.Err() == nil; i++ {
		trial := int(r.I64())
		if r.Err() == nil && i > 0 && trial <= prevTrial {
			return fmt.Errorf("analysis: trial %d out of order after %d in encoded state", trial, prevTrial)
		}
		prevTrial = trial
		ta := &trialAccum{
			nProc:     r.I64(),
			medianSum: r.F64(),
			reclSum:   r.F64(),
			ratioSum:  r.F64(),
			laggards:  r.I64(),
			iters:     map[int]*iterPartial{},
		}
		if r.Err() == nil && (ta.nProc < 0 || ta.laggards < 0 || ta.laggards > ta.nProc) {
			return fmt.Errorf("analysis: corrupt trial %d counts (nProc %d, laggards %d)", trial, ta.nProc, ta.laggards)
		}
		nIters := r.U32()
		for j := uint32(0); j < nIters && r.Err() == nil; j++ {
			iter := int(r.I64())
			if r.Err() == nil && j > 0 && iter <= prevIter {
				return fmt.Errorf("analysis: iteration %d out of order after %d in trial %d", iter, prevIter, trial)
			}
			prevIter = iter
			ip := &iterPartial{n: r.I64(), sum: r.F64(), max: r.F64()}
			if r.Err() == nil && ip.n < 0 {
				return fmt.Errorf("analysis: corrupt iteration %d count %d in trial %d", iter, ip.n, trial)
			}
			ta.iters[iter] = ip
		}
		dec.trials[trial] = ta
	}
	nSketches := r.U32()
	for i := uint32(0); i < nSketches && r.Err() == nil; i++ {
		iter := int(r.I64())
		if r.Err() == nil && i > 0 && iter <= prevIter {
			return fmt.Errorf("analysis: sketch iteration %d out of order after %d", iter, prevIter)
		}
		prevIter = iter
		enc := r.Bytes()
		if r.Err() != nil {
			break
		}
		sk := new(stats.QuantileSketch)
		if err := sk.UnmarshalBinary(enc); err != nil {
			return fmt.Errorf("analysis: iteration %d sketch: %w", iter, err)
		}
		dec.sketches[iter] = sk
	}
	if err := r.Finish("MetricsAccumulator"); err != nil {
		return err
	}
	*a = dec
	return nil
}

// App returns the application name the accumulator was created for.
func (a *Table1Accumulator) App() string { return a.app }

// Alpha returns the significance level the battery runs at.
func (a *Table1Accumulator) Alpha() float64 { return a.verdicts.Alpha() }

// Blocks returns how many process-iteration blocks have been observed.
func (a *Table1Accumulator) Blocks() int64 { return int64(a.total) }

// MarshalBinary encodes the accumulator's full state; it is
// AppendBinary(nil).
func (a *Table1Accumulator) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// BinarySize returns the length of the accumulator's encoding.
func (a *Table1Accumulator) BinarySize() int { return 1 + 4 + len(a.app) + 8 + 8 + 8*len(a.passed) }

// AppendBinary appends the accumulator's full state to b.
// Deterministic: equal accumulators encode to equal bytes.
func (a *Table1Accumulator) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer{Buf: slices.Grow(b, a.BinarySize())}
	w.U8(table1CodecVersion)
	w.Str(a.app)
	w.F64(a.Alpha())
	w.I64(int64(a.total))
	for _, p := range a.passed {
		w.I64(int64(p))
	}
	return w.Buf, nil
}

// UnmarshalBinary replaces the accumulator's state — identity included —
// with the decoded one.
func (a *Table1Accumulator) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != table1CodecVersion {
		return fmt.Errorf("analysis: unknown Table1Accumulator codec version %d", v)
	}
	dec := Table1Accumulator{
		app:      r.Str(),
		verdicts: normality.NewVerdicts(r.F64()),
		total:    int(r.I64()),
	}
	for i := range dec.passed {
		dec.passed[i] = int(r.I64())
	}
	if err := r.Finish("Table1Accumulator"); err != nil {
		return err
	}
	if dec.total < 0 {
		return fmt.Errorf("analysis: corrupt Table1 total %d", dec.total)
	}
	for i, p := range dec.passed {
		if p < 0 || p > dec.total {
			return fmt.Errorf("analysis: corrupt Table1 pass count %d/%d for test %d", p, dec.total, i)
		}
	}
	*a = dec
	return nil
}
