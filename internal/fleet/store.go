// The durable content-addressed result store: merged sweep-cell results
// persist on disk keyed by the cell's resolved engine.SpecKey hash, so a
// coordinator restart (or a second coordinator sharing the directory)
// re-serves finished cells without dispatching a single shard. Records
// are the accumulator wire codecs wrapped in a sealed envelope (a
// CRC-32C trailer, wire.Seal) that also carries the cell's identity in
// the encoding /v1/shard records use (serve.AppendCellIdentity) — a
// loader cross-checks it against the requesting cell, so even a SpecKey
// hash collision cannot serve the wrong result. Writes go through a
// temp file and os.Rename, so concurrent coordinators sharing a store
// directory can race freely: a reader sees either the complete old
// record or the complete new one, never a torn write. Any corrupt,
// truncated or foreign file is skipped with a logged warning and the
// cell simply recomputes.

package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"

	"earlybird/internal/analysis"
	"earlybird/internal/engine"
	"earlybird/internal/serve"
	"earlybird/internal/wire"
)

const (
	storeMagic   = 0x45425253 // "EBRS"
	storeVersion = 2
	storeExt     = ".cell"
)

// Store is an on-disk result store; open with OpenStore. Safe for
// concurrent use within and across processes (atomic rename writes).
type Store struct {
	dir  string
	logf func(format string, args ...any)
}

// OpenStore creates dir if needed and returns a store over it. logf
// receives corruption warnings; nil means the standard logger.
func OpenStore(dir string, logf func(format string, args ...any)) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("fleet: store directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating store: %w", err)
	}
	if logf == nil {
		logf = log.Printf
	}
	return &Store{dir: dir, logf: logf}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len counts the records currently on disk (temp files excluded).
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == storeExt {
			n++
		}
	}
	return n
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+storeExt) }

// put atomically publishes one sealed record under key: written to a
// unique temp file in the same directory, then renamed into place.
func (s *Store) put(key string, sealed []byte) error {
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(sealed); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(key))
}

// get reads and unseals key's record. ok == false on a plain miss and on
// any corruption, which is logged and treated as a miss — the store is a
// cache of recomputable results, never a single point of failure.
func (s *Store) get(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.logf("fleet: store: skipping unreadable entry %s%s: %v", key, storeExt, err)
		}
		return nil, false
	}
	body, err := wire.Unseal(data)
	if err != nil {
		s.logf("fleet: store: skipping corrupt entry %s%s: %v", key, storeExt, err)
		return nil, false
	}
	return body, true
}

// SaveCell persists one merged cell's accumulator states (marshalled
// before finalization) under the cell's store key.
func (s *Store) SaveCell(cell serve.SweepCell, key engine.SpecKey, metricsState, table1State []byte) error {
	var w wire.Writer
	w.U32(storeMagic)
	w.U8(storeVersion)
	w.U64(key.Hash())
	serve.AppendCellIdentity(&w, cell)
	w.Bytes(metricsState)
	w.Bytes(table1State)
	return s.put(key.StoreKey(), w.Seal())
}

// LoadCell looks a cell up by its store key and rebuilds the finished
// row from the persisted accumulator states. ok == false means miss (or
// a corrupt/mismatched record, logged and skipped): dispatch normally.
func (s *Store) LoadCell(cell serve.SweepCell, key engine.SpecKey) (serve.SweepRow, bool) {
	token := key.StoreKey()
	body, ok := s.get(token)
	if !ok {
		return serve.SweepRow{}, false
	}
	skip := func(why string, args ...any) (serve.SweepRow, bool) {
		s.logf("fleet: store: skipping entry %s%s: %s", token, storeExt, fmt.Sprintf(why, args...))
		return serve.SweepRow{}, false
	}
	r := wire.NewReader(body)
	if magic := r.U32(); magic != storeMagic {
		return skip("bad magic %08x", magic)
	}
	if v := r.U8(); v != storeVersion {
		return skip("unsupported version %d", v)
	}
	if h := r.U64(); h != key.Hash() {
		return skip("key hash %016x does not match %016x", h, key.Hash())
	}
	stored, err := serve.ReadCellIdentity(r)
	if err != nil {
		return skip("identity: %v", err)
	}
	metricsState := r.Bytes()
	table1State := r.Bytes()
	if err := r.Finish("store cell"); err != nil {
		return skip("%v", err)
	}
	if !serve.SameCell(stored, cell) {
		return skip("identity mismatch (hash collision or stale encoding)")
	}

	macc := new(analysis.MetricsAccumulator)
	if err := macc.UnmarshalBinary(metricsState); err != nil {
		return skip("metrics state: %v", err)
	}
	tacc := new(analysis.Table1Accumulator)
	if err := tacc.UnmarshalBinary(table1State); err != nil {
		return skip("table1 state: %v", err)
	}
	row := cell.Row(macc, tacc)
	row.StoreHit = true
	return row, true
}
