package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"earlybird/internal/fnv"
)

// Dataset holds the compute times of a full study of one application:
// Trials x Ranks x Iterations x Threads, in seconds. With the paper's
// configuration (10 trials, 8 ranks, 200 iterations, 48 threads) this is
// the 768000-sample body analysed in Section 4.
//
// Dataset is the nested, random-access view of the study; the samples
// themselves live in a flat Columnar store (see columnar.go) when the
// dataset was produced by NewDataset or a Sink, with Times indexing
// directly into the shared column. Hand-built or JSON-decoded datasets
// may lack the backing store.
type Dataset struct {
	App        string `json:"app"`
	Trials     int    `json:"trials"`
	Ranks      int    `json:"ranks"`
	Iterations int    `json:"iterations"`
	Threads    int    `json:"threads"`
	// Times is indexed [trial][rank][iteration][thread].
	Times [][][][]float64 `json:"times"`

	// col is the backing columnar store, when there is one.
	col *Columnar
}

// NewDataset allocates a zeroed dataset with the given geometry, backed
// by a fresh columnar store.
func NewDataset(app string, trials, ranks, iterations, threads int) *Dataset {
	return newColumnar(nil, app, trials, ranks, iterations, threads).Dataset()
}

// NumSamples returns the total number of thread-arrival samples.
func (d *Dataset) NumSamples() int {
	return d.Trials * d.Ranks * d.Iterations * d.Threads
}

// SetFromRecorder copies one rank's recorder into the dataset.
func (d *Dataset) SetFromRecorder(trial, rank int, rec *Recorder) {
	if rec.Iterations() != d.Iterations || rec.Threads() != d.Threads {
		panic("trace: recorder geometry does not match dataset")
	}
	for i := 0; i < d.Iterations; i++ {
		copy(d.Times[trial][rank][i], rec.IterationSeconds(i))
	}
}

// AllSamples returns every compute time in the dataset — the paper's
// "application level aggregation" (768000 samples at the default
// geometry). The result is a fresh slice the caller may sort or mutate.
func (d *Dataset) AllSamples() []float64 {
	if d.col != nil {
		out := make([]float64, len(d.col.times))
		copy(out, d.col.times)
		return out
	}
	out := make([]float64, 0, d.NumSamples())
	for _, trial := range d.Times {
		for _, rank := range trial {
			for _, iter := range rank {
				out = append(out, iter...)
			}
		}
	}
	return out
}

// IterationSamples returns all samples of one application iteration across
// every trial and rank — "application iteration level aggregation" (3840
// samples at the default geometry).
func (d *Dataset) IterationSamples(iter int) []float64 {
	out := make([]float64, 0, d.Trials*d.Ranks*d.Threads)
	for _, trial := range d.Times {
		for _, rank := range trial {
			out = append(out, rank[iter]...)
		}
	}
	return out
}

// ProcessIteration returns the 48-at-default thread samples of a single
// (trial, rank, iteration) — "process iteration level aggregation".
func (d *Dataset) ProcessIteration(trial, rank, iter int) []float64 {
	return d.Times[trial][rank][iter]
}

// EachProcessIteration calls fn for every (trial, rank, iteration) set in
// deterministic order. The slice passed to fn is the dataset's backing
// storage; fn must not mutate or retain it.
func (d *Dataset) EachProcessIteration(fn func(trial, rank, iter int, xs []float64)) {
	for t := 0; t < d.Trials; t++ {
		for r := 0; r < d.Ranks; r++ {
			for i := 0; i < d.Iterations; i++ {
				fn(t, r, i, d.Times[t][r][i])
			}
		}
	}
}

// NumProcessIterations returns trials x ranks x iterations (16000 at the
// default geometry — the population of Table 1).
func (d *Dataset) NumProcessIterations() int {
	return d.Trials * d.Ranks * d.Iterations
}

// Fingerprint returns a 64-bit FNV-1a content hash over the dataset's app
// name, geometry and the IEEE-754 bits of every sample: each (trial,
// rank) stripe is hashed in (iteration, thread) order and the stripe
// hashes are combined in trial-major order. Two datasets with equal
// fingerprints are byte-identical for analysis purposes. Every call
// hashes every sample; tests use it to pin generated datasets bit for
// bit, and no production path reads it.
func (d *Dataset) Fingerprint() uint64 {
	h := fnv.Offset64
	for i := 0; i < len(d.App); i++ {
		// Byte by byte with no length prefix, unlike fnv.Str.
		h = (h ^ uint64(d.App[i])) * fnv.Prime64
	}
	for _, v := range [...]int{d.Trials, d.Ranks, d.Iterations, d.Threads} {
		h = fnv.U64(h, uint64(v))
	}
	for _, trial := range d.Times {
		for _, rank := range trial {
			stripe := fnv.Offset64
			for _, iter := range rank {
				for _, x := range iter {
					stripe = fnv.F64(stripe, x)
				}
			}
			h = fnv.U64(h, stripe)
		}
	}
	return h
}

// Cursor returns a block-at-a-time cursor over every process iteration in
// deterministic (trial, rank, iteration) order. Blocks are zero-copy
// views into the dataset.
func (d *Dataset) Cursor() *Cursor { return d.CursorRange(0, d.Iterations) }

// CursorRange returns a cursor restricted to iterations in [fromIter,
// toIter).
func (d *Dataset) CursorRange(fromIter, toIter int) *Cursor {
	return newCursor(d.Trials, d.Ranks, d.Iterations, fromIter, toIter, func(t, r, i int) []float64 {
		return d.Times[t][r][i]
	})
}

// WriteJSON writes the dataset as JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// ReadJSON reads a dataset written by WriteJSON and validates its
// geometry.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: decoding dataset: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks that the Times tensor matches the declared geometry
// and that every compute time is finite and non-negative: NaN and ±Inf
// break the NaN-free contract of the analysis' sorts (internal/sortx),
// and neither they nor a negative number has a meaning as a duration (a
// compute time is one region's exit minus its enter). -0 is accepted.
func (d *Dataset) Validate() error {
	if len(d.Times) != d.Trials {
		return fmt.Errorf("trace: %d trials declared, %d present", d.Trials, len(d.Times))
	}
	for t, trial := range d.Times {
		if len(trial) != d.Ranks {
			return fmt.Errorf("trace: trial %d: %d ranks declared, %d present", t, d.Ranks, len(trial))
		}
		for r, rank := range trial {
			if len(rank) != d.Iterations {
				return fmt.Errorf("trace: trial %d rank %d: %d iterations declared, %d present", t, r, d.Iterations, len(rank))
			}
			for i, iter := range rank {
				if len(iter) != d.Threads {
					return fmt.Errorf("trace: trial %d rank %d iter %d: %d threads declared, %d present", t, r, i, d.Threads, len(iter))
				}
				for th, x := range iter {
					if !(x >= 0) || math.IsInf(x, 1) {
						return fmt.Errorf("trace: trial %d rank %d iter %d thread %d: compute time %v is negative or not finite", t, r, i, th, x)
					}
				}
			}
		}
	}
	return nil
}
