// Scatter/gather execution of one sweep cell: it shards across workers
// and merges by accumulator state.

package fleet

import (
	"context"

	"earlybird/internal/analysis"
	"earlybird/internal/engine"
	"earlybird/internal/serve"
	"earlybird/internal/share"
)

// shardRange is one contiguous trial range of a cell.
type shardRange struct{ lo, hi int }

// splitTrials partitions [0, trials) into k balanced contiguous ranges.
func splitTrials(trials, k int) []shardRange {
	if k > trials {
		k = trials
	}
	if k < 1 {
		k = 1
	}
	out := make([]shardRange, 0, k)
	for i := 0; i < k; i++ {
		lo := i * trials / k
		hi := (i + 1) * trials / k
		if lo < hi {
			out = append(out, shardRange{lo: lo, hi: hi})
		}
	}
	return out
}

// cellKey resolves a sweep cell to its engine.SpecKey — the scheduler's
// routing key and the durable store's content address. Equal cells
// (after defaulting) key equally on every coordinator.
func cellKey(cell serve.SweepCell) (engine.SpecKey, error) {
	sp := engine.Spec{
		App:                 cell.App,
		Geometry:            cell.Geometry,
		Alpha:               cell.Alpha,
		LaggardThresholdSec: cell.LaggardThresholdSec,
		DLB:                 cell.DLB,
	}
	resolved, err := sp.Resolve()
	if err != nil {
		return engine.SpecKey{}, err
	}
	return resolved.Key(), nil
}

// shardOutcome is one shard's dispatch result: the accepted state and
// the worker that sent it, or the error that ended its dispatch.
type shardOutcome struct {
	state serve.ShardState
	from  *worker
	err   error
}

// DispatchCell implements serve.FleetDispatcher: it shards one sweep
// cell across the fleet's workers and merges the shard states into the
// finished row. A configured durable store is consulted first — before
// even the health check, so a warm store answers with zero workers —
// and fed on every merged cell. ok == false means no healthy worker
// could take some shard — the caller (a coordinating server) should run
// the cell locally; per-cell request errors (unknown app, bad geometry)
// come back as error rows with ok == true, exactly as local execution
// would report them.
func (f *Fleet) DispatchCell(ctx context.Context, cell serve.SweepCell) (serve.SweepRow, bool) {
	// Resolved once: every shard's record is checked against the same
	// canonical identity the workers execute.
	cellReq, err := cell.ShardRequest().Resolve()
	if err != nil {
		f.cellsFailed.Add(1)
		return cell.ErrorRow(err), true
	}
	key, err := cellKey(cell)
	if err != nil {
		f.cellsFailed.Add(1)
		return cell.ErrorRow(err), true
	}
	hash := key.Hash()
	if f.store != nil {
		if row, ok := f.store.LoadCell(cell, key); ok {
			f.storeHits.Add(1)
			return row, true
		}
		f.storeMisses.Add(1)
	}
	if f.Healthy() == 0 {
		return serve.SweepRow{}, false
	}

	shards := f.opts.ShardsPerCell
	if shards <= 0 {
		shards = f.Healthy()
	}
	ranges := splitTrials(cell.Geometry.Trials, shards)

	outcomes := make([]shardOutcome, len(ranges))
	share.FanOut(len(ranges), len(ranges), func(i int) {
		o, req := &outcomes[i], cellReq
		req.TrialLo, req.TrialHi = ranges[i].lo, ranges[i].hi
		o.from, o.err = f.dispatch(ctx, hash, i, "/v1/shard", req, func(raw []byte) error {
			st, err := req.Accept(raw)
			if err != nil {
				f.shardRejects.Add(1)
				return err
			}
			o.state = st
			return nil
		})
	})

	macc := analysis.NewMetricsAccumulator(cell.App, cell.LaggardThresholdSec)
	tacc := analysis.NewTable1Accumulator(cell.App, cell.Alpha)
	var hit, streamed bool
	var shardWorkers []string
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			if _, bad := o.err.(errCell); bad {
				// The request itself is invalid: report it as the cell's
				// error row, as local execution would.
				f.cellsFailed.Add(1)
				return cell.ErrorRow(o.err), true
			}
			if ctx.Err() != nil {
				// The caller cancelled (client gone, deadline hit):
				// report the cancellation rather than pretending the
				// fleet is unhealthy — and never hand the cell back for
				// a pointless full local execution.
				f.cellsFailed.Add(1)
				return cell.ErrorRow(ctx.Err()), true
			}
			// A shard could not be placed anywhere: hand the whole cell
			// back for local execution.
			return serve.SweepRow{}, false
		}
		macc.Merge(o.state.Metrics)
		tacc.Merge(o.state.Table1)
		hit = hit || o.state.Record.DatasetCacheHit
		streamed = streamed || o.state.Record.Streamed
		shardWorkers = append(shardWorkers, o.from.url)
	}
	if f.store != nil {
		// Persist the merged (pre-finalize) states: the codecs are
		// value-preserving, so a later load finalizes to a bit-identical
		// row. A store write failure only costs durability — log and move
		// on.
		if err := f.store.SaveCell(cellReq, key, macc, tacc); err != nil {
			f.store.logf("fleet: store: saving cell %s failed: %v", key.StoreKey(), err)
		}
	}
	row := cell.Row(macc, tacc)
	row.DatasetCacheHit, row.Streamed = hit, streamed
	row.Shards, row.ShardWorkers = len(ranges), shardWorkers
	f.cellsMerged.Add(1)
	return row, true
}
