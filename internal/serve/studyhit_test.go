package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// serveStudy sends one /v1/study request through the server's handler
// and returns the recorded reply.
func serveStudy(t testing.TB, s *Server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/study", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return rec
}

// studyBody encodes one quick study request.
func studyBody(t testing.TB, app string, seed uint64) []byte {
	t.Helper()
	g := testGeom()
	g.Seed = seed
	body, err := json.Marshal(StudySpec{App: app, Geometry: &g})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// asHit is an executed or coalesced reply's body as a result-cache hit
// on the same answer writes it.
func asHit(body []byte, src Source) []byte {
	return bytes.Replace(body, []byte(`"source":"`+src+`"`), []byte(`"source":"`+SourceResultCache+`"`), 1)
}

// cachedReplyJSON is writeJSON's encoding of the cached reply of the
// study body asks for, with Source result-cache.
func cachedReplyJSON(t *testing.T, s *Server, body []byte) []byte {
	t.Helper()
	var wire StudySpec
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	resp, hit, err := s.studyWire(context.Background(), wire)
	if err != nil || hit == nil || resp.Source != SourceResultCache {
		t.Fatalf("cached reply: source %q, memo %v, err %v", resp.Source, hit != nil, err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// TestStudyHitWritesMemoisedReply pins the memoised hit reply: for
// every app, a /v1/study result-cache hit writes the bytes writeJSON
// gives the same reply with Source result-cache, which are the
// executed reply's bytes apart from source, with a Content-Length, and
// repeated hits write them again.
func TestStudyHitWritesMemoisedReply(t *testing.T) {
	s := New(Options{Workers: 2})
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		body := studyBody(t, app, 1)
		executed := serveStudy(t, s, body).Body.Bytes()
		want := asHit(executed, SourceExecuted)
		if bytes.Equal(want, executed) {
			t.Fatalf("%s: executed reply has no executed source: %s", app, executed)
		}
		for i := 0; i < 3; i++ {
			rec := serveStudy(t, s, body)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s hit %d:\n got %s\nwant %s", app, i, got, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Errorf("%s hit %d: Content-Length %q, want %d", app, i, cl, len(want))
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s hit %d: Content-Type %q", app, i, ct)
			}
		}
		if enc := cachedReplyJSON(t, s, body); !bytes.Equal(enc, want) {
			t.Errorf("%s: writeJSON of the cached reply differs from the hit:\n got %s\nwant %s", app, enc, want)
		}
	}
}

// TestStudyHitConcurrentFirstHits: concurrent first hits on one fresh
// entry race to fill its memo, and every one of them writes the same
// bytes.
func TestStudyHitConcurrentFirstHits(t *testing.T) {
	s := New(Options{Workers: 2})
	body := studyBody(t, "minimd", 2)
	want := asHit(serveStudy(t, s, body).Body.Bytes(), SourceExecuted)

	const n = 16
	got := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/study", bytes.NewReader(body)))
			got[i] = rec.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("hit %d:\n got %s\nwant %s", i, b, want)
		}
	}
	if hits := s.sources.lruHits.Load(); hits != n {
		t.Errorf("result-cache hits = %d, want %d", hits, n)
	}
}

// TestStudyMissesKeepTheirSource: the memo serves hits only. A request
// that executes its study still says executed, and one that joins that
// execution still says coalesced.
func TestStudyMissesKeepTheirSource(t *testing.T) {
	s := New(Options{Workers: 2})
	body := studyBody(t, "miniqmc", 3)
	// Hold every execution slot, so the first request to reach the
	// result cache's flight blocks inside its execution and the other
	// joins it.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	var replies [2]StudyResponse
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/study", bytes.NewReader(body)))
			if err := json.Unmarshal(rec.Body.Bytes(), &replies[i]); err != nil {
				t.Errorf("reply %d: %v (%s)", i, err, rec.Body)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the joiner attach
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
	wg.Wait()
	sources := map[Source]int{}
	for _, r := range replies {
		sources[r.Source]++
	}
	if sources[SourceExecuted] != 1 || sources[SourceCoalesced] != 1 {
		t.Errorf("sources %v, want one executed and one coalesced", sources)
	}
	if replies[0].Metrics != replies[1].Metrics {
		t.Error("the joined reply's metrics differ from the executed one's")
	}
}

// TestStudyHitAfterEviction: an evicted entry takes its memo with it.
// Once the study runs again, the next hit writes the new answer's
// bytes. The rerun is the second entry of a campaign whose first entry
// differs only in alpha, so it reads that entry's fill, and its reply
// (dataset_cache_hit true) differs from the evicted one's. The campaign
// runs on one worker, so its entries answer in order: the rerun reads
// the first entry's fill, and its answer is the one the one-slot result
// cache keeps.
func TestStudyHitAfterEviction(t *testing.T) {
	s := New(Options{Workers: 2, MaxResults: 1})
	a, b := studyBody(t, "minife", 4), studyBody(t, "minimd", 4)

	first := asHit(serveStudy(t, s, a).Body.Bytes(), SourceExecuted)
	if got := serveStudy(t, s, a).Body.Bytes(); !bytes.Equal(got, first) {
		t.Fatalf("first hit:\n got %s\nwant %s", got, first)
	}
	serveStudy(t, s, b) // evicts a's entry

	var wire StudySpec
	if err := json.Unmarshal(a, &wire); err != nil {
		t.Fatal(err)
	}
	other := wire
	other.Policy = &PolicySpec{Alpha: 0.01}
	campaign, err := json.Marshal(CampaignRequest{Specs: []StudySpec{other, wire}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaign", bytes.NewReader(campaign)))
	var out CampaignResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("campaign reply %s: %v", rec.Body, err)
	}
	if out.Failed != 0 || len(out.Results) != 2 {
		t.Fatalf("campaign: %d results, %d failed", len(out.Results), out.Failed)
	}
	rerun := out.Results[1].StudyResponse
	if rerun.Source != SourceExecuted || !rerun.DatasetCacheHit {
		t.Fatalf("rerun: source %q, dataset cache hit %v; want executed on the first entry's fill", rerun.Source, rerun.DatasetCacheHit)
	}
	rerun.Source = SourceResultCache
	var want bytes.Buffer
	if err := encodeJSON(&want, rerun); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want.Bytes(), first) {
		t.Fatal("the rerun's reply equals the evicted answer's; the test cannot tell them apart")
	}
	if got := serveStudy(t, s, a).Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("hit after the rerun:\n got %s\nwant %s", got, want.Bytes())
	}
}

// maxStudyHitAllocs bounds the allocations of one /v1/study
// result-cache hit through the handler, request and recorder included.
// A hit measured 47 when it encoded its reply on every request and 37
// when it writes the memoised bytes.
const maxStudyHitAllocs = 41

// TestStudyHitAllocs pins that a hit does not encode its reply again.
func TestStudyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New(Options{Workers: 1})
	body := studyBody(t, "minife", 5)
	serveStudy(t, s, body)
	serveStudy(t, s, body) // fills the memo
	allocs := testing.AllocsPerRun(100, func() { serveStudy(t, s, body) })
	t.Logf("%.0f allocations per hit", allocs)
	if allocs > maxStudyHitAllocs {
		t.Errorf("a hit made %.0f allocations, over the bound %d", allocs, maxStudyHitAllocs)
	}
}

// BenchmarkStudyHit times one /v1/study result-cache hit through the
// server's handler: decode, resolve, LRU lookup and the reply write.
func BenchmarkStudyHit(b *testing.B) {
	s := New(Options{Workers: 1})
	body := studyBody(b, "minife", 6)
	serveStudy(b, s, body)
	serveStudy(b, s, body) // fills the memo
	b.ReportAllocs()
	for b.Loop() {
		serveStudy(b, s, body)
	}
}
