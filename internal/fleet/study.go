package fleet

import (
	"context"
)

// DispatchWhole implements serve.WholeDispatcher: one cell that travels
// whole — a bare-app study over POST /v1/study, or a strategy cell over
// POST /v1/strategies — is posted to its rendezvous
// worker, with the same failover and speculation as shard dispatch, and
// the worker's JSON answer is decoded into out. The caller supplies the
// cell's resolved key hash, so equal cells route to the same worker from
// any coordinator and a repeat meets that worker's result cache.
//
// The request carries every field post-resolution and execution is
// deterministic, so the worker's answer is bit-identical to what local
// execution of the same cell would produce. false means the cell could
// not be placed (no eligible worker, or the worker rejected the request)
// and the caller should run it locally — a rejection fails identically
// there, so no outcome is lost in the fallback.
func (f *Fleet) DispatchWhole(ctx context.Context, hash uint64, path string, req, out any) bool {
	if f.Healthy() == 0 {
		return false
	}
	if _, err := f.dispatch(ctx, hash, 0, path, req, jsonInto(out)); err != nil {
		return false
	}
	f.cellsMerged.Add(1)
	return true
}
