// The durable content-addressed result store: merged sweep-cell results
// persist on disk keyed by the cell's resolved engine.SpecKey hash, so a
// coordinator restart (or a second coordinator sharing the directory)
// re-serves finished cells without dispatching a single shard. A record
// is the sealed record /v1/shard answers with (serve.AppendShardRecord)
// for the cell's whole trial range [0, Trials): identity, range, block
// count and both accumulator states behind a CRC-32C trailer. A loader
// checks it with the serve.ShardRequest.Accept a coordinator applies to
// a worker's answer, so even a SpecKey hash collision cannot serve the
// wrong result, and a record in an older format is a miss. Writes go
// through a temp file and os.Rename, so concurrent coordinators sharing
// a store directory can race freely: a reader sees either the complete
// old record or the complete new one, never a torn write. Any corrupt,
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

const storeExt = ".cell"

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

// get reads key's sealed record and checks its seal. ok == false on a
// plain miss and on any corruption, which is logged and treated as a
// miss — the store is a cache of recomputable results, never a single
// point of failure.
func (s *Store) get(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.logf("fleet: store: skipping unreadable entry %s%s: %v", key, storeExt, err)
		}
		return nil, false
	}
	if _, err := wire.Unseal(data); err != nil {
		s.logf("fleet: store: skipping corrupt entry %s%s: %v", key, storeExt, err)
		return nil, false
	}
	return data, true
}

// SaveCell persists one merged cell, the shard [0, Trials) of the
// resolved request req, as the sealed record /v1/shard answers with:
// the accumulator states are encoded before finalization, so a later
// load finalizes to a bit-identical row.
func (s *Store) SaveCell(req serve.ShardRequest, key engine.SpecKey, m *analysis.MetricsAccumulator, t *analysis.Table1Accumulator) error {
	hdr := serve.ShardResponse{
		App:                 req.App,
		Geometry:            *req.Geometry,
		Alpha:               req.Alpha,
		LaggardThresholdSec: req.LaggardSec,
		TrialHi:             req.Geometry.Trials,
		Blocks:              m.Blocks(),
	}
	if req.DLB != nil {
		hdr.DLB = *req.DLB
	}
	record, err := serve.AppendShardRecord(nil, &hdr, m, t)
	if err != nil {
		return err
	}
	return s.put(key.StoreKey(), record)
}

// LoadCell looks a cell up by its store key and rebuilds the finished
// row from the persisted record, which must answer the cell's whole
// shard request (serve.ShardRequest.Accept). ok == false means miss (or
// a corrupt, foreign or old-format record, logged and skipped):
// dispatch normally.
func (s *Store) LoadCell(cell serve.SweepCell, key engine.SpecKey) (serve.SweepRow, bool) {
	token := key.StoreKey()
	record, ok := s.get(token)
	if !ok {
		return serve.SweepRow{}, false
	}
	req, err := cell.ShardRequest().Resolve()
	var st serve.ShardState
	if err == nil {
		st, err = req.Accept(record)
	}
	if err != nil {
		s.logf("fleet: store: skipping entry %s%s: %v", token, storeExt, err)
		return serve.SweepRow{}, false
	}
	row := cell.Row(st.Metrics, st.Table1)
	row.StoreHit = true
	return row, true
}
