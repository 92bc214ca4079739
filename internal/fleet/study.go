package fleet

import (
	"context"

	"earlybird/internal/serve"
)

// DispatchStudy implements serve.StudyDispatcher: one wire-expressible
// study (a scenario cell the compiler left as a bare app spec) is
// dispatched whole to its rendezvous worker over POST /v1/study, with
// the same failover and speculation as shard dispatch. The caller
// supplies the resolved spec's key hash, so equal cells route to the
// same worker from any coordinator and that worker's dataset cache (and
// the result cache in front of it) stays hot.
//
// The wire spec carries every field post-resolution and engine.RunSpec
// is deterministic, so the worker's response is bit-identical to what
// local execution of the same cell would produce. ok == false means the
// study could not be placed (no eligible worker, or the worker rejected
// the request) and the caller should run it locally — a rejection fails
// identically there, so no outcome is lost in the fallback.
func (f *Fleet) DispatchStudy(ctx context.Context, hash uint64, spec serve.StudySpec) (serve.StudyResponse, bool) {
	if f.Healthy() == 0 {
		return serve.StudyResponse{}, false
	}
	var out serve.StudyResponse
	if _, err := f.dispatch(ctx, hash, 0, "/v1/study", spec, jsonInto(&out)); err != nil {
		return serve.StudyResponse{}, false
	}
	f.cellsMerged.Add(1)
	return out, true
}
