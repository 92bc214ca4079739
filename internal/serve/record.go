// Sealed binary records: the codec for a cell's identity and for the
// answer to POST /v1/shard. A shard record carries one cell's identity,
// the trial range it covers, its block count and flags, and the two
// accumulator states, all sealed with a CRC-32C trailer (wire.Seal).
// The fleet's durable result store writes the same record, for a cell's
// whole trial range, so a record on disk and a record on the wire are
// checked against the requesting cell by one Accept.

package serve

import (
	"bytes"
	"encoding"
	"fmt"
	"math"
	"slices"

	"earlybird/internal/analysis"
	"earlybird/internal/dlb"
	"earlybird/internal/wire"
)

const (
	shardMagic   = 0x45425348 // "EBSH"
	shardVersion = 1
)

// Shard record flag bits.
const (
	flagDatasetCacheHit uint8 = 1 << iota
	flagStreamed
	knownFlags = flagDatasetCacheHit | flagStreamed
)

// AppendCellIdentity writes the fields a record must match to serve a
// cell: everything the engine's SpecKey covers that a sweep cell can
// express (Index is a grid position, not identity).
func AppendCellIdentity(w *wire.Writer, cell SweepCell) {
	w.Str(cell.App)
	w.U64(uint64(cell.Geometry.Trials))
	w.U64(uint64(cell.Geometry.Ranks))
	w.U64(uint64(cell.Geometry.Iterations))
	w.U64(uint64(cell.Geometry.Threads))
	w.U64(cell.Geometry.Seed)
	w.F64(cell.Alpha)
	w.F64(cell.LaggardThresholdSec)
	w.Str(cell.DLB.String())
}

// ReadCellIdentity decodes what AppendCellIdentity wrote. It accepts
// only encodings AppendCellIdentity produces: a DLB policy that does not
// render back to the same text is refused.
func ReadCellIdentity(r *wire.Reader) (SweepCell, error) {
	var c SweepCell
	c.App = r.Str()
	c.Geometry.Trials = int(r.U64())
	c.Geometry.Ranks = int(r.U64())
	c.Geometry.Iterations = int(r.U64())
	c.Geometry.Threads = int(r.U64())
	c.Geometry.Seed = r.U64()
	c.Alpha = r.F64()
	c.LaggardThresholdSec = r.F64()
	policy := r.Str()
	if err := r.Err(); err != nil {
		return c, err
	}
	spec, err := dlb.Parse(policy)
	if err != nil {
		return c, err
	}
	if spec.String() != policy {
		return c, fmt.Errorf("serve: non-canonical dlb policy %q", policy)
	}
	if !spec.IsStatic() {
		c.DLB = spec
	}
	return c, nil
}

// SameCell reports whether a and b have the same identity encoding:
// equal apps, geometries and policies, and bit-equal alpha and laggard
// threshold.
func SameCell(a, b SweepCell) bool {
	var wa, wb wire.Writer
	AppendCellIdentity(&wa, a)
	AppendCellIdentity(&wb, b)
	return bytes.Equal(wa.Buf, wb.Buf)
}

// cell returns the identity a resolved request asks for.
func (req ShardRequest) cell() SweepCell {
	c := SweepCell{App: req.App, Geometry: *req.Geometry, Alpha: req.Alpha, LaggardThresholdSec: req.LaggardSec}
	if req.DLB != nil {
		c.DLB = *req.DLB
	}
	return c
}

// cell returns the identity the response claims.
func (resp *ShardResponse) cell() SweepCell {
	return SweepCell{
		App: resp.App, Geometry: resp.Geometry, Alpha: resp.Alpha,
		LaggardThresholdSec: resp.LaggardThresholdSec, DLB: resp.DLB,
	}
}

// RecordState is an accumulator state a shard record carries:
// analysis.MetricsAccumulator and analysis.Table1Accumulator implement
// it.
type RecordState interface {
	encoding.BinaryAppender
	// BinarySize is the exact length AppendBinary appends.
	BinarySize() int
}

// AppendShardRecord appends one sealed shard record to dst: hdr's
// identity, trial range, block count and flags, then the metrics and
// Table 1 states, each encoded in place behind a length prefix (hdr's
// MetricsState and Table1State are not read). A worker passes its
// accumulators, so the states are encoded once, straight into the
// record, and the record grows once for both of them.
func AppendShardRecord(dst []byte, hdr *ShardResponse, metrics, table1 RecordState) ([]byte, error) {
	w := wire.Writer{Buf: dst}
	w.U32(shardMagic)
	w.U8(shardVersion)
	AppendCellIdentity(&w, hdr.cell())
	w.U64(uint64(hdr.TrialLo))
	w.U64(uint64(hdr.TrialHi))
	w.I64(hdr.Blocks)
	var flags uint8
	if hdr.DatasetCacheHit {
		flags |= flagDatasetCacheHit
	}
	if hdr.Streamed {
		flags |= flagStreamed
	}
	w.U8(flags)
	w.Buf = slices.Grow(w.Buf, 4+metrics.BinarySize()+4+table1.BinarySize()+wire.SealSize)
	for _, state := range []RecordState{metrics, table1} {
		at := w.BeginBytes()
		var err error
		if w.Buf, err = state.AppendBinary(w.Buf); err != nil {
			return nil, err
		}
		w.EndBytes(at)
	}
	return w.Seal(), nil
}

// encodedState is an already encoded accumulator state.
type encodedState []byte

func (s encodedState) AppendBinary(b []byte) ([]byte, error) { return append(b, s...), nil }

func (s encodedState) BinarySize() int { return len(s) }

// MarshalBinary encodes the response as a sealed shard record, the body
// of a /v1/shard answer.
func (resp *ShardResponse) MarshalBinary() ([]byte, error) {
	return AppendShardRecord(nil, resp, encodedState(resp.MetricsState), encodedState(resp.Table1State))
}

// UnmarshalBinary verifies the seal on one shard record and decodes it.
// It checks the record is well formed — its trial range inside its
// geometry — but not that it answers any particular request; see
// ShardRequest.Accept. MetricsState and Table1State alias data.
func (resp *ShardResponse) UnmarshalBinary(data []byte) error {
	body, err := wire.Unseal(data)
	if err != nil {
		return err
	}
	r := wire.NewReader(body)
	if magic := r.U32(); r.Err() == nil && magic != shardMagic {
		return fmt.Errorf("serve: bad shard record magic %08x", magic)
	}
	if v := r.U8(); r.Err() == nil && v != shardVersion {
		return fmt.Errorf("serve: unsupported shard record version %d", v)
	}
	cell, err := ReadCellIdentity(r)
	if err != nil {
		return fmt.Errorf("serve: shard record identity: %w", err)
	}
	lo, hi := r.U64(), r.U64()
	dec := ShardResponse{
		App:                 cell.App,
		Geometry:            cell.Geometry,
		Alpha:               cell.Alpha,
		LaggardThresholdSec: cell.LaggardThresholdSec,
		DLB:                 cell.DLB,
		Blocks:              r.I64(),
	}
	flags := r.U8()
	dec.MetricsState = r.Bytes()
	dec.Table1State = r.Bytes()
	if err := r.Finish("shard record"); err != nil {
		return err
	}
	if flags&^knownFlags != 0 {
		return fmt.Errorf("serve: unknown shard record flags %02x", flags)
	}
	if err := dec.Geometry.Validate(); err != nil {
		return err
	}
	if lo >= hi || hi > uint64(dec.Geometry.Trials) {
		return fmt.Errorf("serve: shard record trial range [%d, %d) outside %d trials", lo, hi, dec.Geometry.Trials)
	}
	dec.TrialLo, dec.TrialHi = int(lo), int(hi)
	dec.DatasetCacheHit = flags&flagDatasetCacheHit != 0
	dec.Streamed = flags&flagStreamed != 0
	*resp = dec
	return nil
}

// ShardState is one verified /v1/shard answer: the record and its two
// decoded accumulator states.
type ShardState struct {
	Record  ShardResponse
	Metrics *analysis.MetricsAccumulator
	Table1  *analysis.Table1Accumulator
}

// Accept decodes one /v1/shard answer to req, which must be resolved
// (see Resolve), and verifies it before anything merges it: the seal,
// the same cell identity and trial range, one block per process
// iteration of that range, and accumulator states that decode and agree
// with the record on app, parameters and block count. Any error means
// the worker answered something other than req, and its state must be
// discarded.
func (req ShardRequest) Accept(data []byte) (ShardState, error) {
	var st ShardState
	resp := &st.Record
	if err := resp.UnmarshalBinary(data); err != nil {
		return st, err
	}
	if !SameCell(resp.cell(), req.cell()) {
		return st, fmt.Errorf("serve: shard record is for another cell (%s %+v alpha %g laggard %g dlb %s)",
			resp.App, resp.Geometry, resp.Alpha, resp.LaggardThresholdSec, resp.DLB)
	}
	if resp.TrialLo != req.TrialLo || resp.TrialHi != req.TrialHi {
		return st, fmt.Errorf("serve: shard record covers trials [%d, %d), requested [%d, %d)",
			resp.TrialLo, resp.TrialHi, req.TrialLo, req.TrialHi)
	}
	g := req.Geometry
	if blocks := int64(req.TrialHi-req.TrialLo) * int64(g.Ranks) * int64(g.Iterations); resp.Blocks != blocks {
		return st, fmt.Errorf("serve: shard record holds %d blocks, want %d", resp.Blocks, blocks)
	}
	st.Metrics, st.Table1 = new(analysis.MetricsAccumulator), new(analysis.Table1Accumulator)
	if err := st.Metrics.UnmarshalBinary(resp.MetricsState); err != nil {
		return st, fmt.Errorf("serve: shard metrics state: %w", err)
	}
	if err := st.Table1.UnmarshalBinary(resp.Table1State); err != nil {
		return st, fmt.Errorf("serve: shard table1 state: %w", err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if st.Metrics.App() != req.App || st.Table1.App() != req.App ||
		!same(st.Metrics.LaggardThreshold(), req.LaggardSec) || !same(st.Table1.Alpha(), req.Alpha) ||
		st.Metrics.Blocks() != resp.Blocks || st.Table1.Blocks() != resp.Blocks {
		return st, fmt.Errorf("serve: shard states disagree with their record (apps %q/%q, %d/%d blocks)",
			st.Metrics.App(), st.Table1.App(), st.Metrics.Blocks(), st.Table1.Blocks())
	}
	return st, nil
}
