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

// shardOutcome is one shard's dispatch result: the accepted state of
// each reading and the worker that sent them, or the error that ended
// its dispatch.
type shardOutcome struct {
	states []serve.ShardState
	from   *worker
	err    error
}

// groupCell is one cell of a dispatched fill group: its resolved
// request and durable-store key.
type groupCell struct {
	cell serve.SweepCell
	req  serve.ShardRequest
	key  engine.SpecKey
}

// DispatchCell implements serve.FleetDispatcher: DispatchCells of the
// one cell.
func (f *Fleet) DispatchCell(ctx context.Context, cell serve.SweepCell) (serve.SweepRow, bool) {
	var row serve.SweepRow
	left := f.DispatchCells(ctx, []serve.SweepCell{cell}, func(r serve.SweepRow) { row = r })
	return row, len(left) == 0
}

// DispatchCells implements serve.GroupDispatcher: it shards the cells of
// one fill group across the fleet's workers, each shard one request read
// at every cell's alpha and laggard threshold, and merges the shard
// states into each cell's finished row. A configured durable store is
// consulted first — before even the health check, so a warm store
// answers with zero workers — and fed on every merged cell. The cells
// returned are those no healthy worker could take some shard of — the
// caller (a coordinating server) should run them locally; per-cell
// request errors (unknown app, bad geometry) come back as error rows,
// exactly as local execution would report them.
func (f *Fleet) DispatchCells(ctx context.Context, cells []serve.SweepCell, emit func(serve.SweepRow)) []serve.SweepCell {
	fail := func(c serve.SweepCell, err error) {
		f.cellsFailed.Add(1)
		emit(c.ErrorRow(err))
	}
	var group []groupCell
	for _, cell := range cells {
		// Resolved once: every shard's record is checked against the
		// same canonical identity the workers execute.
		req, err := cell.ShardRequest().Resolve()
		if err != nil {
			fail(cell, err)
			continue
		}
		key, err := cellKey(cell)
		if err != nil {
			fail(cell, err)
			continue
		}
		if f.store != nil {
			if row, ok := f.store.LoadCell(cell, key); ok {
				f.storeHits.Add(1)
				emit(row)
				continue
			}
			f.storeMisses.Add(1)
		}
		group = append(group, groupCell{cell: cell, req: req, key: key})
	}
	if len(group) == 0 {
		return nil
	}
	if f.Healthy() == 0 {
		return groupCells(group)
	}

	// One request reads the group's fill at every cell's parameters; each
	// record of its answer is checked against that cell's own request.
	groupReq := group[0].req
	for _, g := range group[1:] {
		groupReq.Readings = append(groupReq.Readings, serve.Reading{Alpha: g.req.Alpha, LaggardSec: g.req.LaggardSec})
	}
	shards := f.opts.ShardsPerCell
	if shards <= 0 {
		shards = f.Healthy()
	}
	ranges := splitTrials(group[0].cell.Geometry.Trials, shards)
	hash := group[0].key.Hash()

	outcomes := make([]shardOutcome, len(ranges))
	share.FanOut(len(ranges), len(ranges), func(i int) {
		o, req := &outcomes[i], groupReq
		req.TrialLo, req.TrialHi = ranges[i].lo, ranges[i].hi
		o.from, o.err = f.dispatch(ctx, hash, i, "/v1/shard", req, func(raw []byte) error {
			states, err := acceptShard(req, raw)
			if err != nil {
				f.shardRejects.Add(1)
				return err
			}
			o.states = states
			return nil
		})
	})

	var shardWorkers []string
	for i := range outcomes {
		o := &outcomes[i]
		if o.err == nil {
			shardWorkers = append(shardWorkers, o.from.url)
			continue
		}
		if _, bad := o.err.(errCell); bad {
			// The request itself is invalid: report it as each cell's
			// error row, as local execution would.
			for _, g := range group {
				fail(g.cell, o.err)
			}
			return nil
		}
		if ctx.Err() != nil {
			// The caller cancelled (client gone, deadline hit): report
			// the cancellation rather than pretending the fleet is
			// unhealthy — and never hand the cells back for a pointless
			// full local execution.
			for _, g := range group {
				fail(g.cell, ctx.Err())
			}
			return nil
		}
		// A shard could not be placed anywhere: hand the whole group
		// back for local execution.
		return groupCells(group)
	}
	for j, g := range group {
		macc := analysis.NewMetricsAccumulator(g.cell.App, g.cell.LaggardThresholdSec)
		tacc := analysis.NewTable1Accumulator(g.cell.App, g.cell.Alpha)
		for i := range outcomes {
			st := outcomes[i].states[j]
			macc.Merge(st.Metrics)
			st.Metrics.Release()
			tacc.Merge(st.Table1)
		}
		if f.store != nil {
			// Persist the merged (pre-finalize) states: the codecs are
			// value-preserving, so a later load finalizes to a
			// bit-identical row. A store write failure only costs
			// durability — log and move on.
			if err := f.store.SaveCell(g.req, g.key, macc, tacc); err != nil {
				f.store.logf("fleet: store: saving cell %s failed: %v", g.key.StoreKey(), err)
			}
		}
		row := g.cell.Row(macc, tacc)
		row.Shards, row.ShardWorkers = len(ranges), shardWorkers
		f.cellsMerged.Add(1)
		emit(row)
	}
	return nil
}

// acceptShard checks one /v1/shard answer to req: a single record, or a
// record set when req lists further readings, each record accepted
// against its reading's own request.
func acceptShard(req serve.ShardRequest, raw []byte) ([]serve.ShardState, error) {
	reqs := req.Split()
	recs := [][]byte{raw}
	if len(reqs) > 1 {
		var err error
		if recs, err = serve.SplitRecordSet(raw, len(reqs)); err != nil {
			return nil, err
		}
	}
	states := make([]serve.ShardState, len(reqs))
	for j, one := range reqs {
		st, err := one.Accept(recs[j])
		if err != nil {
			return nil, err
		}
		states[j] = st
	}
	return states, nil
}

// groupCells returns the cells of a dispatched group.
func groupCells(group []groupCell) []serve.SweepCell {
	cells := make([]serve.SweepCell, len(group))
	for i, g := range group {
		cells[i] = g.cell
	}
	return cells
}
