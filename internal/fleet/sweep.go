// Scatter/gather execution: sweep cells shard across workers and merge
// by accumulator state; strategy cells dispatch whole and merge by
// concatenation.

package fleet

import (
	"context"
	"fmt"
	"sync"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/engine"
	"earlybird/internal/serve"
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
	var wg sync.WaitGroup
	for i, rg := range ranges {
		req := cellReq
		req.TrialLo, req.TrialHi = rg.lo, rg.hi
		wg.Add(1)
		go func(o *shardOutcome) {
			defer wg.Done()
			o.from, o.err = f.dispatch(ctx, hash, i, "/v1/shard", req, func(raw []byte) error {
				st, err := req.Accept(raw)
				if err != nil {
					f.shardRejects.Add(1)
					return err
				}
				o.state = st
				return nil
			})
		}(&outcomes[i])
	}
	wg.Wait()

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
		mstate, merr := macc.MarshalBinary()
		tstate, terr := tacc.MarshalBinary()
		if merr == nil && terr == nil {
			if err := f.store.SaveCell(cell, key, mstate, tstate); err != nil {
				f.store.logf("fleet: store: saving cell %s failed: %v", key.StoreKey(), err)
			}
		}
	}
	row := cell.Row(macc, tacc)
	row.DatasetCacheHit, row.Streamed = hit, streamed
	row.Shards, row.ShardWorkers = len(ranges), shardWorkers
	f.cellsMerged.Add(1)
	return row, true
}

// Sweep runs a sweep request entirely on the fleet, emitting one row per
// cell in completion order — the client-side counterpart of a
// coordinator server's fanned-out /v1/sweep. Cells that cannot be placed
// (no healthy workers) emit error rows; emit is never called twice for
// one cell. The request-level error covers grid expansion only.
func (f *Fleet) Sweep(ctx context.Context, req serve.SweepRequest, emit func(serve.SweepRow)) error {
	cells, err := req.Cells()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	serve.FanOut(len(cells), min(cap(f.sem), len(cells)), func(i int) {
		row, ok := f.DispatchCell(ctx, cells[i])
		if !ok {
			f.cellsFailed.Add(1)
			row = cells[i].ErrorRow(f.notPlaced(0, -1, nil))
		}
		mu.Lock()
		emit(row)
		mu.Unlock()
	})
	return nil
}

// Strategies runs a strategy-grid request on the fleet: each (app,
// geometry) cell dispatches whole to its rendezvous worker over
// POST /v1/strategies (strategy rows are self-contained — no accumulator
// merge needed), with the same failover as sweep shards. Cells that
// cannot be placed emit error rows.
func (f *Fleet) Strategies(ctx context.Context, req serve.StrategiesRequest, emit func(serve.StrategyRow)) error {
	cells, err := req.Cells()
	if err != nil {
		return err
	}
	var mu sync.Mutex
	serve.FanOut(len(cells), min(cap(f.sem), len(cells)), func(i int) {
		row := f.strategyCell(ctx, req, cells[i])
		mu.Lock()
		emit(row)
		mu.Unlock()
	})
	return nil
}

// strategyCell dispatches one strategy cell and restamps its index.
func (f *Fleet) strategyCell(ctx context.Context, req serve.StrategiesRequest, cell serve.StrategyCell) serve.StrategyRow {
	fail := func(err error) serve.StrategyRow {
		f.cellsFailed.Add(1)
		return serve.StrategyRow{Index: cell.Index, App: cell.App, Geometry: cell.Geometry, Err: err.Error()}
	}
	sp := engine.Spec{App: cell.App, Geometry: cell.Geometry, BytesPerPartition: req.BytesPerPartition}
	if req.DLB != nil {
		sp.DLB = *req.DLB
	}
	resolved, err := sp.Resolve()
	if err != nil {
		return fail(err)
	}

	single := req
	single.Apps = []string{cell.App}
	single.Geometries = []cluster.Config{cell.Geometry}
	single.GeometryNames = nil
	single.Stream = false
	single.Workers = 0
	var out serve.StrategiesResponse
	if _, err := f.dispatch(ctx, resolved.Key().Hash(), 0, "/v1/strategies", single, jsonInto(&out)); err != nil {
		return fail(err)
	}
	if len(out.Rows) != 1 {
		return fail(fmt.Errorf("worker returned %d rows for one cell", len(out.Rows)))
	}
	row := out.Rows[0]
	row.Index = cell.Index
	if row.Err != "" {
		f.cellsFailed.Add(1)
	} else {
		f.cellsMerged.Add(1)
	}
	return row
}
