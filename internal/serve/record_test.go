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
	"earlybird/internal/wire"
)

// realRecords runs three small shards — static, LeWI, and one on the
// streamed (uncached) path — and returns their sealed records.
func realRecords(t testing.TB) [][]byte {
	t.Helper()
	geom := cluster.Config{Trials: 3, Ranks: 2, Iterations: 4, Threads: 48, Seed: 7}
	lewi := dlb.Spec{Policy: dlb.PolicyLeWI}
	cached := New(Options{Workers: 2})
	streamed := New(Options{Workers: 2, MaxCachedSweepSamples: 1})
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

// heapAllocBytes reads the cumulative bytes allocated on the heap,
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
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
// the fields instead of stopping at the checksum. Whatever the input,
// decoding must not panic, take longer than maxDecodeWall, or allocate
// more than a small multiple of the input (no allocation sized by an
// unchecked length), and every payload that decodes must re-encode to
// the same bytes: record, metrics state and Table 1 state alike.
func FuzzShardRecord(f *testing.F) {
	for _, rec := range realRecords(f) {
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
			mErr = m.UnmarshalBinary(resp.MetricsState)
			tErr = tb.UnmarshalBinary(resp.Table1State)
			_, _ = requestFor(&resp).Accept(rec)
		}
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("decoding %d bytes took %v, over the %v bound", len(payload), wall, maxDecodeWall)
		}
		if grew := heapAllocBytes() - before; grew > 64*uint64(len(payload))+1<<20 {
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
