package serve

import (
	"bytes"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/stats"
	"earlybird/internal/wire"
)

// realRecords runs three small shards — static, LeWI, and one on the
// streamed (uncached) path — and returns their sealed records.
func realRecords(t testing.TB) [][]byte {
	t.Helper()
	geom := cluster.Config{Trials: 3, Ranks: 2, Iterations: 4, Threads: 48, Seed: 7}
	lewi := dlb.Spec{Policy: dlb.PolicyLeWI}
	cached := New(Options{Workers: 2})
	streamed := New(Options{Workers: 2})
	streamed.maxSweepSamples = 1
	var out [][]byte
	for _, c := range []struct {
		s   *Server
		req ShardRequest
	}{
		{cached, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 0, TrialHi: 2}},
		{cached, ShardRequest{App: "minimd", Geometry: &geom, DLB: &lewi, TrialLo: 1, TrialHi: 3}},
		{streamed, ShardRequest{App: "miniqmc", Geometry: &geom, Alpha: 0.01, TrialLo: 2, TrialHi: 3}},
	} {
		req, err := c.req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		hdr, macc, tacc, err := c.s.runShard(req)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := AppendShardRecord(nil, &hdr, macc, tacc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// requestFor is the resolved request a record claims to answer.
func requestFor(resp *ShardResponse) ShardRequest {
	req := ShardRequest{
		App: resp.App, Geometry: &resp.Geometry, Alpha: resp.Alpha, LaggardSec: resp.LaggardThresholdSec,
		TrialLo: resp.TrialLo, TrialHi: resp.TrialHi,
	}
	if !resp.DLB.IsStatic() {
		req.DLB = &resp.DLB
	}
	return req
}

// TestShardRecordRoundTrip: a real record decodes, re-encodes to the
// same bytes, and is accepted by the request it answers; the same
// record is refused by a request for another cell, another trial range
// or another policy, and after any single bit flip.
func TestShardRecordRoundTrip(t *testing.T) {
	for i, rec := range realRecords(t) {
		var resp ShardResponse
		if err := resp.UnmarshalBinary(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		again, err := resp.MarshalBinary()
		if err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("record %d: re-encoding differs (err %v)", i, err)
		}
		if i == 2 && !resp.Streamed {
			t.Error("streamed shard lost its flag")
		}
		req := requestFor(&resp)
		st, err := req.Accept(rec)
		if err != nil {
			t.Fatalf("record %d refused by its own request: %v", i, err)
		}
		if st.Metrics.Blocks() != resp.Blocks || st.Table1.Blocks() != resp.Blocks {
			t.Fatalf("record %d: states hold %d/%d blocks, record %d", i, st.Metrics.Blocks(), st.Table1.Blocks(), resp.Blocks)
		}

		otherSeed := resp.Geometry
		otherSeed.Seed++
		wrongCell := req
		wrongCell.Geometry = &otherSeed
		wrongAlpha := req
		wrongAlpha.Alpha = 0.02
		wrongRange := req // same size, shifted
		if req.TrialLo > 0 {
			wrongRange.TrialLo, wrongRange.TrialHi = req.TrialLo-1, req.TrialHi-1
		} else {
			wrongRange.TrialLo, wrongRange.TrialHi = req.TrialLo+1, req.TrialHi+1
		}
		drom := dlb.Spec{Policy: dlb.PolicyDROM, ReactionIters: dlb.DefaultReactionIters}
		wrongPolicy := req
		wrongPolicy.DLB = &drom
		for name, bad := range map[string]ShardRequest{
			"another seed": wrongCell, "another alpha": wrongAlpha, "another range": wrongRange, "another policy": wrongPolicy,
		} {
			if _, err := bad.Accept(rec); err == nil {
				t.Errorf("record %d accepted by %s", i, name)
			}
		}
		for bit := 0; bit < 8*len(rec); bit += 7 {
			flipped := bytes.Clone(rec)
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, err := req.Accept(flipped); err == nil {
				t.Fatalf("record %d accepted with bit %d flipped", i, bit)
			}
		}
	}
}

// TestShardRecordRefusesStatesThatDisagree: a record whose header is
// right but whose states belong to another shard — a forged or
// mismatched record that still seals — is refused.
func TestShardRecordRefusesStatesThatDisagree(t *testing.T) {
	recs := realRecords(t)
	var a, b ShardResponse
	if err := a.UnmarshalBinary(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(recs[1]); err != nil {
		t.Fatal(err)
	}
	forged := a
	forged.MetricsState = b.MetricsState
	rec, err := forged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := requestFor(&a).Accept(rec); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("record with another shard's metrics state: %v", err)
	}

	// The right app and parameters, but states holding one block where
	// the record claims the whole range.
	req := requestFor(&a)
	macc := analysis.NewMetricsAccumulator(req.App, req.LaggardSec)
	tacc := analysis.NewTable1Accumulator(req.App, req.Alpha)
	kernel := analysis.NewKernel(macc, tacc)
	kernel.ObserveBlock(req.TrialLo, 0, 0, make([]float64, req.Geometry.Threads))
	rec, err = AppendShardRecord(nil, &a, macc, tacc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := req.Accept(rec); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("record with a one-block state: %v", err)
	}
}

// TestReadCellIdentityRefusesNonCanonicalPolicy: the identity decoder
// takes a DLB policy only in the form AppendCellIdentity writes, so
// every identity it accepts re-encodes to the same bytes.
func TestReadCellIdentityRefusesNonCanonicalPolicy(t *testing.T) {
	encode := func(policy string) []byte {
		var w wire.Writer
		w.Str("minife")
		for _, v := range []uint64{2, 2, 4, 48, 9} {
			w.U64(v)
		}
		w.F64(0.05)
		w.F64(0.001)
		w.Str(policy)
		return w.Buf
	}
	for policy, ok := range map[string]bool{
		"static":                    true,
		"lewi:factor=1.25,lend=0.5": true,
		"drom:reaction=4":           true,
		"lewi:lend=0.5,factor=1.25": false, // parameters out of order
		"lewi:factor=1.250":         false, // not the shortest float
		" static":                   false,
		"":                          false,
	} {
		data := encode(policy)
		cell, err := ReadCellIdentity(wire.NewReader(data))
		if (err == nil) != ok {
			t.Errorf("policy %q: err %v, want accepted=%v", policy, err, ok)
			continue
		}
		if ok {
			var w wire.Writer
			AppendCellIdentity(&w, cell)
			if !bytes.Equal(w.Buf, data) {
				t.Errorf("policy %q: identity re-encodes differently", policy)
			}
		}
	}
}

// hostileHistogramRecords returns copies of rec whose metrics state
// holds one iteration histogram that no set of samples produces — a
// level over 62, a span of QuantileBins, counts that miss n, an empty
// end bin, a min below its lowest bin, a trailing byte — and one whose
// well-formed histogram counts other samples than its trial partials.
// The metrics decoder must refuse each before allocating for it.
func hostileHistogramRecords(t testing.TB, rec []byte) [][]byte {
	t.Helper()
	var base ShardResponse
	if err := base.UnmarshalBinary(rec); err != nil {
		t.Fatal(err)
	}
	// A one-block state of the samples {0, 1 s}: its single histogram —
	// level 21, bins 0 and 476 — is the state's tail, behind a u32
	// length prefix.
	macc := analysis.NewMetricsAccumulator(base.App, base.LaggardThresholdSec)
	macc.ObserveBlock(base.TrialLo, 0, 0, []float64{0, 1})
	state, err := macc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h stats.QuantileHistogram
	h.AddSlice([]float64{0, 1})
	good, _ := h.MarshalBinary()
	prefix := state[:len(state)-len(good)-4]

	// hist writes a histogram encoding with one-byte counts (n < 256).
	hist := func(n uint64, level uint8, lo int64, span uint64, min, max float64, counts ...byte) []byte {
		var w wire.Writer
		w.U8(good[0]) // the codec version
		w.Uvarint(n)
		w.U8(level)
		w.Varint(lo)
		w.Uvarint(span)
		w.F64(min)
		w.F64(max)
		w.Buf = append(w.Buf, counts...)
		return w.Buf
	}
	const span = 476
	ends := func(first, last byte) []byte {
		c := make([]byte, span+1)
		c[0], c[span] = first, last
		return c
	}
	if !bytes.Equal(hist(2, 21, 0, span, 0, 1, ends(1, 1)...), good) {
		t.Fatal("the hand-built histogram of {0, 1 s} differs from its encoding")
	}
	var more stats.QuantileHistogram
	more.AddSlice([]float64{0, 0.5, 1})
	wrongN, _ := more.MarshalBinary()
	var out [][]byte
	for _, enc := range [][]byte{
		hist(2, 63, 0, 0, 0, 1, 2),
		hist(2, 21, 0, stats.QuantileBins, 0, 1),
		hist(3, 21, 0, span, 0, 1, ends(1, 1)...),
		hist(2, 21, 0, span, 0, 1, ends(2, 0)...),
		hist(2, 21, 1, span-1, 0, 1, ends(1, 1)[1:]...),
		append(bytes.Clone(good), 0),
		wrongN,
	} {
		var w wire.Writer
		w.Buf = bytes.Clone(prefix)
		w.Bytes(enc)
		if err := new(analysis.MetricsAccumulator).UnmarshalBinary(w.Buf); err == nil {
			t.Fatalf("hostile histogram %x accepted", enc)
		}
		forged := base
		forged.MetricsState = w.Buf
		rec, err := forged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestShardRecordRefusesHostileHistograms: a sealed record carrying a
// hostile iteration histogram is refused by the request it claims to
// answer — a worker fault, never merged state.
func TestShardRecordRefusesHostileHistograms(t *testing.T) {
	recs := realRecords(t)
	var base ShardResponse
	if err := base.UnmarshalBinary(recs[0]); err != nil {
		t.Fatal(err)
	}
	for i, rec := range hostileHistogramRecords(t, recs[0]) {
		if _, err := requestFor(&base).Accept(rec); err == nil {
			t.Errorf("hostile record %d accepted", i)
		}
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the heap,
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// histogramBytes bounds what decoding one iteration histogram
// allocates: its counts and the map entry that holds it.
const histogramBytes = 4*stats.QuantileBins + 512

// TestAcceptBoundsCraftedStateAllocation: a sealed record whose metrics
// state is over 1 MB of iterations — each a two-sample histogram
// spanning all QuantileBins bins, the most counts per input byte a
// state can ask for — is refused by the request it claims to answer
// before it allocates more than a small multiple of its length. The
// state's iterations run past the request's, and the decoder checks
// each key before allocating for it; an unchecked decoder would
// allocate a histogram's counts for every ~70 bytes.
func TestAcceptBoundsCraftedStateAllocation(t *testing.T) {
	recs := realRecords(t)
	var base ShardResponse
	if err := base.UnmarshalBinary(recs[0]); err != nil {
		t.Fatal(err)
	}
	req := requestFor(&base)
	macc := analysis.NewMetricsAccumulator(base.App, base.LaggardThresholdSec)
	const iters = 16000
	for iter := 0; iter < iters; iter++ {
		macc.ObserveBlock(base.TrialLo, 0, iter, []float64{0, (stats.QuantileBins - 1) * 1e-9})
	}
	forged := base
	var err error
	if forged.MetricsState, err = macc.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	macc = nil
	rec, err := forged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) < 1<<20 {
		t.Fatalf("crafted record is %d bytes, want over 1 MB", len(rec))
	}
	before := heapAllocBytes()
	_, err = req.Accept(rec)
	grew := heapAllocBytes() - before
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("crafted state: %v, want a refusal for iterations past the request's", err)
	}
	if grew > 4*uint64(len(rec)) {
		t.Fatalf("refusing a %d-byte record allocated %d bytes", len(rec), grew)
	}
	t.Logf("refusing a %d-byte record allocated %d bytes", len(rec), grew)
}

// maxDecodeWall is the per-input wall bound of FuzzShardRecord. Decoding
// a record and both states is linear in the input, under a millisecond
// for each ~5.7 KB seed record under the race detector, so a second
// leaves three orders of magnitude of headroom for a loaded machine and
// for the fuzzer's larger inputs while still
// failing a decode whose work is not bounded by its input length, the
// class of the bin-timeout hang.
const maxDecodeWall = time.Second

// FuzzShardRecord drives the shard record decoder and the accumulator
// state decoders behind it with arbitrary record payloads. The input is
// the payload, sealed by the target before decoding, so mutations reach
// the fields instead of stopping at the checksum. The metrics state is
// decoded within its record's trial range and iterations, as Accept
// decodes it. Whatever the input, decoding must not panic, take longer
// than maxDecodeWall, or allocate more than a small multiple of the
// input plus one histogram per iteration the decoder may admit — at most
// the record's iterations, and at most one per 32 input bytes, the
// trial partial each non-empty histogram needs (no allocation sized by
// an unchecked length) — and every payload that decodes must re-encode
// to the same bytes: record, metrics state and Table 1 state alike.
func FuzzShardRecord(f *testing.F) {
	recs := realRecords(f)
	for _, rec := range recs {
		f.Add(rec[:len(rec)-wire.SealSize])
	}
	for _, rec := range hostileHistogramRecords(f, recs[0]) {
		f.Add(rec[:len(rec)-wire.SealSize])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		w := wire.Writer{Buf: bytes.Clone(payload)}
		rec := w.Seal()
		var resp ShardResponse
		var m analysis.MetricsAccumulator
		var tb analysis.Table1Accumulator
		var recErr, mErr, tErr error
		before, start := heapAllocBytes(), time.Now()
		if recErr = resp.UnmarshalBinary(rec); recErr == nil {
			mErr = m.UnmarshalBounded(resp.MetricsState, resp.TrialLo, resp.TrialHi, resp.Geometry.Iterations)
			tErr = tb.UnmarshalBinary(resp.Table1State)
			_, _ = requestFor(&resp).Accept(rec)
		}
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("decoding %d bytes took %v, over the %v bound", len(payload), wall, maxDecodeWall)
		}
		hists := uint64(len(payload) / 32)
		if recErr == nil {
			hists = min(hists, uint64(resp.Geometry.Iterations))
		}
		// Two decodes of the state: the direct one and Accept's.
		if grew := heapAllocBytes() - before; grew > 16*uint64(len(payload))+2*histogramBytes*hists+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if recErr != nil {
			return
		}
		if again, err := resp.MarshalBinary(); err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("decoded record re-encodes differently (err %v)", err)
		}
		if mErr == nil {
			if again, err := m.MarshalBinary(); err != nil || !bytes.Equal(again, resp.MetricsState) {
				t.Fatalf("decoded metrics state re-encodes differently (err %v)", err)
			}
		}
		if tErr == nil {
			if again, err := tb.MarshalBinary(); err != nil || !bytes.Equal(again, resp.Table1State) {
				t.Fatalf("decoded Table 1 state re-encodes differently (err %v)", err)
			}
		}
	})
}
