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
	"math"
	"slices"

	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/wire"
)

// Codec version bytes, bumped on any layout change.
const (
	// metricsCodecVersion 2 carries quantile histograms where version 1
	// carried t-digests.
	metricsCodecVersion uint8 = 2
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
	for _, h := range a.iqrs {
		n += 8 + 4 + h.BinarySize()
	}
	return n
}

// AppendBinary appends the accumulator's full state to b: identity
// (app, threshold), every per-trial partial and every per-iteration
// histogram, all in ascending order so equal accumulators encode to
// equal bytes. b grows once, to the exact size, and each histogram is
// encoded in place behind a back-patched length prefix.
func (a *MetricsAccumulator) AppendBinary(b []byte) ([]byte, error) {
	w := wire.Writer{Buf: slices.Grow(b, a.BinarySize())}
	w.U8(metricsCodecVersion)
	w.Str(a.app)
	w.F64(a.threshold)

	keys := make([]int, 0, len(a.iqrs)) // every sorted key list in turn
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
		keys = sortedKeys(keys, ta.iters)
		for _, iter := range keys {
			ip := ta.iters[iter]
			w.I64(int64(iter))
			w.I64(ip.n)
			w.F64(ip.sum)
			w.F64(ip.max)
		}
	}

	w.U32(uint32(len(a.iqrs)))
	keys = sortedKeys(keys, a.iqrs)
	for _, iter := range keys {
		w.I64(int64(iter))
		at := w.BeginBytes()
		var err error
		if w.Buf, err = a.iqrs[iter].AppendBinary(w.Buf); err != nil {
			return nil, err
		}
		w.EndBytes(at)
	}
	return w.Buf, nil
}

// sortedKeys returns m's keys in ascending order, in buf's storage.
func sortedKeys[V any](buf []int, m map[int]V) []int {
	buf = slices.AppendSeq(buf[:0], maps.Keys(m))
	slices.Sort(buf)
	return buf
}

// UnmarshalBinary replaces the accumulator's state — identity included —
// with the decoded one. The receiver may come from NewMetricsAccumulator
// with any arguments; they are overwritten. Each iteration's histogram
// must count exactly the samples its per-trial partials do, and each
// iteration with samples must have one. Any trial and iteration keys are
// accepted, so a decoded state can hold a histogram — QuantileBins
// counts — for every ~70 input bytes; a state from a peer is decoded
// with UnmarshalBounded instead.
func (a *MetricsAccumulator) UnmarshalBinary(data []byte) error {
	return a.unmarshal(data, math.MinInt, math.MaxInt, math.MaxInt)
}

// UnmarshalBounded is UnmarshalBinary for the state of trials
// [trialLo, trialHi) of a geometry of iterations application
// iterations: it also refuses a trial key outside [trialLo, trialHi) or
// an iteration key outside [0, iterations), before allocating for it.
// So a decoded state holds at most iterations histograms, no more than
// the honest state for those trials holds, whatever the input.
func (a *MetricsAccumulator) UnmarshalBounded(data []byte, trialLo, trialHi, iterations int) error {
	return a.unmarshal(data, trialLo, trialHi, iterations)
}

func (a *MetricsAccumulator) unmarshal(data []byte, trialLo, trialHi, iterations int) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != metricsCodecVersion {
		return fmt.Errorf("analysis: unknown MetricsAccumulator codec version %d", v)
	}
	dec := MetricsAccumulator{
		app:       r.Str(),
		threshold: r.F64(),
		trials:    map[int]*trialAccum{},
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
		if r.Err() == nil && (trial < trialLo || trial >= trialHi) {
			return fmt.Errorf("analysis: trial %d disagrees with the trial range [%d, %d)", trial, trialLo, trialHi)
		}
		prevTrial = trial
		ta := &trialAccum{
			nProc:     r.I64(),
			medianSum: r.F64(),
			reclSum:   r.F64(),
			ratioSum:  r.F64(),
			laggards:  r.I64(),
		}
		if r.Err() == nil && (ta.nProc < 0 || ta.laggards < 0 || ta.laggards > ta.nProc) {
			return fmt.Errorf("analysis: corrupt trial %d counts (nProc %d, laggards %d)", trial, ta.nProc, ta.laggards)
		}
		// Size hints never exceed what the input can hold: a partial is
		// 32 bytes, a histogram at least 14.
		nIters := r.U32()
		ta.iters = make(map[int]*iterPartial, min(int(nIters), r.Remaining()/32))
		for j := uint32(0); j < nIters && r.Err() == nil; j++ {
			iter := int(r.I64())
			if r.Err() == nil && j > 0 && iter <= prevIter {
				return fmt.Errorf("analysis: iteration %d out of order after %d in trial %d", iter, prevIter, trial)
			}
			if r.Err() == nil && (iter < 0 || iter >= iterations) {
				return fmt.Errorf("analysis: iteration %d of trial %d disagrees with the %d iterations", iter, trial, iterations)
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
	// samples counts each iteration's samples over the trial partials,
	// in uint64 so that no sum of decoded counts wraps.
	hint := 0
	for _, ta := range dec.trials {
		hint = max(hint, len(ta.iters))
	}
	samples := make(map[int]uint64, hint)
	for _, ta := range dec.trials {
		for iter, ip := range ta.iters {
			samples[iter] += uint64(ip.n)
		}
	}
	nHists := r.U32()
	dec.iqrs = make(map[int]*stats.QuantileHistogram, min(int(nHists), r.Remaining()/14))
	for i := uint32(0); i < nHists && r.Err() == nil; i++ {
		iter := int(r.I64())
		if r.Err() == nil && i > 0 && iter <= prevIter {
			return fmt.Errorf("analysis: histogram iteration %d out of order after %d", iter, prevIter)
		}
		if r.Err() == nil && (iter < 0 || iter >= iterations) {
			return fmt.Errorf("analysis: histogram iteration %d disagrees with the %d iterations", iter, iterations)
		}
		prevIter = iter
		enc := r.Bytes()
		if r.Err() != nil {
			break
		}
		h := new(stats.QuantileHistogram)
		if err := h.UnmarshalBinary(enc); err != nil {
			return fmt.Errorf("analysis: iteration %d histogram: %w", iter, err)
		}
		if uint64(h.N()) != samples[iter] {
			return fmt.Errorf("analysis: iteration %d histogram counts %d samples, its trials %d", iter, h.N(), samples[iter])
		}
		delete(samples, iter)
		dec.iqrs[iter] = h
	}
	if err := r.Finish("MetricsAccumulator"); err != nil {
		return err
	}
	for iter, n := range samples {
		if n > 0 {
			return fmt.Errorf("analysis: iteration %d has %d samples and no histogram", iter, n)
		}
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
