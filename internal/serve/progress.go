// Live progress: the serve-side half of the TALP-style telemetry loop.
// Every dataset generation the engine runs for this server gets a
// telemetry.Tracker registered under a deterministic progress ID;
// GET /v1/progress streams a tracker's snapshots as NDJSON while the
// study is in flight. Coalesced and cache-served requests never create
// trackers — one generation, one tracker, exactly like one execution.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/fnv"
	"earlybird/internal/telemetry"
)

// Progress stream pacing bounds: the snapshot interval is client-tunable
// via ?interval_ms= within [minProgressInterval, maxProgressInterval].
const (
	defaultProgressInterval = 250 * time.Millisecond
	minProgressInterval     = 10 * time.Millisecond
	maxProgressInterval     = 5 * time.Second
)

// ProgressID derives the deterministic progress identity of a study
// generation: an FNV-1a hash (hex) over the application name, the full
// geometry including the seed, and the canonical DLB policy — the same
// coordinates as a dataset's engine.Key. Clients that know
// what they asked for can compute the ID without waiting for a
// response; concurrent identical requests share it, exactly as they
// share the generation.
func ProgressID(app string, geom cluster.Config, policy dlb.Spec) string {
	if resolved, err := policy.Resolve(); err == nil {
		policy = resolved
	}
	h := fnv.Str(fnv.Offset64, app)
	h = fnv.U64(h, uint64(geom.Trials))
	h = fnv.U64(h, uint64(geom.Ranks))
	h = fnv.U64(h, uint64(geom.Iterations))
	h = fnv.U64(h, uint64(geom.Threads))
	h = fnv.U64(h, geom.Seed)
	h = policy.Hash(h)
	return fmt.Sprintf("%016x", h)
}

// generationProgress implements engine.ProgressFactory: it registers a
// live tracker for the starting generation and retires it when the
// generation finishes. The efficiency denominator is the server's
// worker budget: the capacity this server admits work against.
func (s *Server) generationProgress(model string, geom cluster.Config, policy dlb.Spec) (cluster.ProgressSink, func()) {
	return s.fillProgress(model, geom, policy, s.eng.Workers())
}

// fillProgress registers one live tracker for a fill on workers fill
// goroutines, the denominator of its efficiency, and returns it with
// the func that retires it.
func (s *Server) fillProgress(model string, geom cluster.Config, policy dlb.Spec, workers int) (cluster.ProgressSink, func()) {
	tr := telemetry.New(telemetry.StudyInfo{
		ID:         ProgressID(model, geom, policy),
		App:        model,
		Trials:     geom.Trials,
		Ranks:      geom.Ranks,
		Iterations: geom.Iterations,
		Threads:    geom.Threads,
		Workers:    workers,
	})
	s.tel.Register(tr)
	return tr, func() { s.tel.Finish(tr) }
}

// Telemetry returns the server's live-telemetry registry, which
// earlybirdd reads and tests drive with synthetic trackers.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// handleProgress serves GET /v1/progress. With ?id= it streams that
// study's snapshots as NDJSON — one line per interval, flushed
// immediately — until the study finishes (the final line has
// "done":true) or the client disconnects. Without an id it lists one
// snapshot per active study and closes.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	interval := defaultProgressInterval
	if raw := r.URL.Query().Get("interval_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad interval_ms %q: %v", raw, err))
			return
		}
		interval = time.Duration(ms) * time.Millisecond
		if interval < minProgressInterval {
			interval = minProgressInterval
		}
		if interval > maxProgressInterval {
			interval = maxProgressInterval
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	id := r.URL.Query().Get("id")
	if id == "" {
		for _, p := range s.tel.Active() {
			_ = enc.Encode(p)
		}
		flush()
		return
	}
	tr, ok := s.tel.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no active or recent study with progress id %q", id))
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		p := tr.Snapshot()
		if err := enc.Encode(p); err != nil {
			return
		}
		flush()
		if p.Done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
