// Durable result store tests: warm-restart re-serving without a single
// dispatch, corruption tolerance (every broken record is a logged miss,
// never a crash or a wrong answer), identity cross-checking, and
// atomic-rename safety under concurrent writers.

package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/fnv"
	"earlybird/internal/serve"
	"earlybird/internal/wire"
)

// storeLog captures store warnings for assertions.
type storeLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *storeLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *storeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

func (l *storeLog) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, sub) {
			return true
		}
	}
	return false
}

func TestOpenStoreValidation(t *testing.T) {
	if _, err := OpenStore("", nil); err == nil {
		t.Error("empty dir: expected error")
	}
	dir := t.TempDir()
	st, err := OpenStore(filepath.Join(dir, "nested", "store"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("fresh store Len = %d", st.Len())
	}
	if st.Dir() == "" {
		t.Error("Dir empty")
	}
}

// TestStoreWarmRestartServesWithoutDispatch is the durability acceptance
// test: a second coordinator sharing the store directory — whose only
// "worker" is long dead — re-serves the completed sweep entirely from
// disk, bit-identical, with its shard dispatch counter at exactly 0.
func TestStoreWarmRestartServesWithoutDispatch(t *testing.T) {
	dir := t.TempDir()
	st1, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	cold := newFleet(t, Options{Peers: []string{w1.URL, w2.URL}, Store: st1})

	req := serve.SweepRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	coldRows := collectSweep(t, cold, req)
	want := singleNodeRows(t, req)
	assertBitIdentical(t, coldRows, want)

	snap := cold.Snapshot()
	if snap.StoreMisses != 4 || snap.StoreHits != 0 {
		t.Fatalf("cold run store counters: %+v", snap)
	}
	if st1.Len() != 4 {
		t.Fatalf("store holds %d records, want 4", st1.Len())
	}

	// "Restart": a fresh coordinator, same directory, dead worker.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	dead := deadTS.URL
	deadTS.Close()
	st2, err := OpenStore(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	warm := newFleet(t, Options{Peers: []string{dead}, Store: st2})
	warmRows := collectSweep(t, warm, req)
	assertBitIdentical(t, warmRows, want)
	for idx, rs := range warmRows {
		if !rs[0].StoreHit {
			t.Errorf("cell %d not marked as a store hit", idx)
		}
		if rs[0].Shards != 0 || len(rs[0].ShardWorkers) != 0 {
			t.Errorf("cell %d claims dispatch: %+v", idx, rs[0])
		}
	}
	wsnap := warm.Snapshot()
	if wsnap.ShardsDispatched != 0 {
		t.Fatalf("warm restart dispatched %d shards, want 0", wsnap.ShardsDispatched)
	}
	if wsnap.StoreHits != 4 || wsnap.StoreMisses != 0 {
		t.Fatalf("warm run store counters: %+v", wsnap)
	}
}

// TestStoreCorruptionTolerated: every way a record can rot on disk —
// truncation, bit flips, garbage, an empty file — is a logged miss, and
// the cell transparently recomputes and repairs the record.
func TestStoreCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	lg := &storeLog{}
	st, err := OpenStore(dir, lg.logf)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL}, Store: st})

	cell := serve.SweepCell{App: "minife", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}
	row, ok := f.DispatchCell(context.Background(), cell)
	if !ok || row.Err != "" {
		t.Fatalf("seed dispatch failed: %+v", row)
	}
	key, err := cellKey(cell)
	if err != nil {
		t.Fatal(err)
	}
	path := st.path(key.StoreKey())
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadCell(cell, key); !ok {
		t.Fatal("pristine record does not load")
	}

	corruptions := map[string][]byte{
		"empty":     {},
		"truncated": pristine[:len(pristine)/2],
		"garbage":   []byte("not a sealed record at all"),
		"flipped": func() []byte {
			b := append([]byte(nil), pristine...)
			b[len(b)/3] ^= 0xff
			return b
		}(),
		"too short": pristine[:4],
	}
	for name, data := range corruptions {
		before := lg.count()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.LoadCell(cell, key); ok {
			t.Errorf("%s: corrupt record served", name)
		}
		if lg.count() <= before {
			t.Errorf("%s: corruption was not logged", name)
		}
		// The sweep path recomputes and heals the record.
		row, ok := f.DispatchCell(context.Background(), cell)
		if !ok || row.Err != "" || row.StoreHit {
			t.Fatalf("%s: recompute failed: ok=%v row=%+v", name, ok, row)
		}
		if _, ok := st.LoadCell(cell, key); !ok {
			t.Errorf("%s: record not repaired after recompute", name)
		}
	}
	if !lg.contains("skipping corrupt entry") {
		t.Errorf("expected corruption warnings, got %v", lg.lines)
	}
}

// TestStoreRejectsMismatchedIdentity: a record renamed onto another
// cell's key (the on-disk shape of a hash collision) is refused by the
// record's identity check (serve.ShardRequest.Accept) and logged.
func TestStoreRejectsMismatchedIdentity(t *testing.T) {
	dir := t.TempDir()
	lg := &storeLog{}
	st, err := OpenStore(dir, lg.logf)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL}, Store: st})

	cellA := serve.SweepCell{App: "minife", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}
	cellB := cellA
	cellB.Alpha = 0.01
	if row, ok := f.DispatchCell(context.Background(), cellA); !ok || row.Err != "" {
		t.Fatalf("seed dispatch failed: %+v", row)
	}
	keyA, _ := cellKey(cellA)
	keyB, _ := cellKey(cellB)
	if err := os.Rename(st.path(keyA.StoreKey()), st.path(keyB.StoreKey())); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadCell(cellB, keyB); ok {
		t.Fatal("foreign record served for the wrong cell")
	}
	if !lg.contains("for another cell") {
		t.Errorf("mismatch not logged: %v", lg.lines)
	}
}

// TestStoreConcurrentWriters hammers one key from two Store handles
// (two coordinator processes sharing a directory): every read must see
// a complete sealed record of one writer or a clean miss — never a torn
// mix, which the checksum would expose.
func TestStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	lg := &storeLog{}
	stA, err := OpenStore(dir, lg.logf)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := OpenStore(dir, lg.logf)
	if err != nil {
		t.Fatal(err)
	}

	sealed := func(tag uint64) []byte {
		var w wire.Writer
		w.U32(0x45425253)
		w.U64(tag)
		for i := 0; i < 200; i++ {
			w.U64(tag * uint64(i+1))
		}
		return w.Seal()
	}
	wantA, wantB := string(sealed(1)), string(sealed(2))

	const key = "00deadbeef00cafe"
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, tag := stA, uint64(1)
			if i%2 == 1 {
				st, tag = stB, 2
			}
			payload := sealed(tag)
			for j := 0; j < 100; j++ {
				if err := st.put(key, payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				record, ok := stA.get(key)
				if !ok {
					continue // a get may race the very first rename; misses are legal
				}
				if got := string(record); got != wantA && got != wantB {
					t.Error("torn read: body matches neither writer")
					return
				}
			}
		}()
	}
	wg.Wait()
	if lg.contains("corrupt") {
		t.Errorf("checksum failures under concurrent rename writes: %v", lg.lines)
	}
	record, ok := stA.get(key)
	if !ok {
		t.Fatal("final read missed")
	}
	if got := string(record); got != wantA && got != wantB {
		t.Error("final record torn")
	}
}

// TestStoreOldFNVRecordHeals: a record written before the store moved
// to CRC-32C seals — version 1 layout, 8-byte FNV-1a trailer — is a
// logged miss, never a served row; the sweep path recomputes the cell
// and rewrites the record in the current format.
func TestStoreOldFNVRecordHeals(t *testing.T) {
	dir := t.TempDir()
	lg := &storeLog{}
	st, err := OpenStore(dir, lg.logf)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL}, Store: st})

	cell := serve.SweepCell{App: "miniqmc", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}
	if row, ok := f.DispatchCell(context.Background(), cell); !ok || row.Err != "" {
		t.Fatalf("seed dispatch failed: %+v", row)
	}
	key, err := cellKey(cell)
	if err != nil {
		t.Fatal(err)
	}
	path := st.path(key.StoreKey())
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := wire.Unseal(current)
	if err != nil {
		t.Fatal(err)
	}
	// The version 1 record: the same fields behind version byte 1, sealed
	// by appending the FNV-1a-64 of everything before it.
	old := bytes.Clone(body)
	old[4] = 1
	old = binary.LittleEndian.AppendUint64(old, fnv.Bytes(fnv.Offset64, old))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	before := lg.count()
	if _, ok := st.LoadCell(cell, key); ok {
		t.Fatal("FNV-sealed record served")
	}
	if lg.count() <= before || !lg.contains("skipping corrupt entry") {
		t.Fatalf("FNV-sealed record not logged as a miss: %v", lg.lines)
	}
	row, ok := f.DispatchCell(context.Background(), cell)
	if !ok || row.Err != "" || row.StoreHit {
		t.Fatalf("recompute failed: ok=%v row=%+v", ok, row)
	}
	if _, ok := st.LoadCell(cell, key); !ok {
		t.Fatal("record not rewritten after recompute")
	}
	if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, current) {
		t.Fatalf("healed record differs from a fresh one (err %v)", err)
	}
}

// TestStoreOldEBRSRecordHeals: a record in the store's former layout
// ("EBRS" magic, version 2, key hash, cell identity, both states), sealed
// correctly, is a logged miss, never a served row; the sweep path
// recomputes the cell and rewrites the record as a shard record.
func TestStoreOldEBRSRecordHeals(t *testing.T) {
	dir := t.TempDir()
	lg := &storeLog{}
	st, err := OpenStore(dir, lg.logf)
	if err != nil {
		t.Fatal(err)
	}
	_, w1 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL}, Store: st})

	cell := serve.SweepCell{App: "minimd", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}
	if row, ok := f.DispatchCell(context.Background(), cell); !ok || row.Err != "" {
		t.Fatalf("seed dispatch failed: %+v", row)
	}
	key, err := cellKey(cell)
	if err != nil {
		t.Fatal(err)
	}
	path := st.path(key.StoreKey())
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec serve.ShardResponse
	if err := rec.UnmarshalBinary(current); err != nil {
		t.Fatal(err)
	}
	var old wire.Writer
	old.U32(0x45425253) // "EBRS"
	old.U8(2)
	old.U64(key.Hash())
	serve.AppendCellIdentity(&old, cell)
	old.Bytes(rec.MetricsState)
	old.Bytes(rec.Table1State)
	if err := os.WriteFile(path, old.Seal(), 0o644); err != nil {
		t.Fatal(err)
	}

	before := lg.count()
	if _, ok := st.LoadCell(cell, key); ok {
		t.Fatal("EBRS v2 record served")
	}
	if lg.count() <= before || !lg.contains("skipping entry") {
		t.Fatalf("EBRS v2 record not logged as a miss: %v", lg.lines)
	}
	row, ok := f.DispatchCell(context.Background(), cell)
	if !ok || row.Err != "" || row.StoreHit {
		t.Fatalf("recompute failed: ok=%v row=%+v", ok, row)
	}
	if _, ok := st.LoadCell(cell, key); !ok {
		t.Fatal("record not rewritten after recompute")
	}
	if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, current) {
		t.Fatalf("healed record differs from a fresh one (err %v)", err)
	}
}
