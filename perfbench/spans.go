package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"earlybird/perfbench/calib"
)

// span is one timed call into a layer. Every span carries both clocks:
// cpu is the process CPU clock (all threads), wall the monotonic clock
// since the tracer started. Spans of one request share req.
type span struct {
	name         string
	req          int
	id, parent   int // parent 0: a request's root
	cpu0, cpu1   int64
	wall0, wall1 int64
	bytes        int64 // layer-specific size (allocation or state bytes)
}

// tracer records spans in memory; they are written out when the run
// ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
	t0    time.Time
	// cur is the load client's current request and its root span, read by
	// the client when it opens serve.http.
	curReq, curRoot int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 1, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent int) int {
	cpu, wall := calib.ProcessCPU(), int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, req: req, id: len(t.spans), parent: parent, cpu0: cpu, wall0: wall})
	return len(t.spans) - 1
}

// setCurrent marks the request the load client is sending.
func (t *tracer) setCurrent(req, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.curReq, t.curRoot = req, root
}

func (t *tracer) current() (req, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.curReq, t.curRoot
}

// end closes span id.
func (t *tracer) end(id int) {
	cpu, wall := calib.ProcessCPU(), int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].cpu1, t.spans[id].wall1 = cpu, wall
}

// setBytes attaches a size to span id.
func (t *tracer) setBytes(id int, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].bytes = n
}

// snapshot returns the recorded spans (without the unused id 0).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans[1:])
}

// spanHeader carries "req/parent" from a traced client to a traced
// handler, so the handler's spans join the caller's request tree.
const spanHeader = "X-Perfbench-Span"

func setSpanHeader(h http.Header, req, parent int) {
	h.Set(spanHeader, strconv.Itoa(req)+"/"+strconv.Itoa(parent))
}

// spanFrom reads the caller's request and parent span from r.
func spanFrom(r *http.Request) (req, parent int) {
	a, b, _ := strings.Cut(r.Header.Get(spanHeader), "/")
	req, _ = strconv.Atoi(a)
	parent, _ = strconv.Atoi(b)
	return req, parent
}

// interval is a half-open [lo, hi) stretch of one clock.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(lo, hi int64, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int { return int(x.lo - y.lo) })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns each span's self time on the chosen clock: its
// duration minus the part of it its children cover. Children that
// overlap each other are counted once, and a child reaching outside its
// parent only removes the part inside.
func selfTimes(spans []span, cpu bool) map[int]int64 {
	iv := func(s span) interval {
		if cpu {
			return interval{s.cpu0, s.cpu1}
		}
		return interval{s.wall0, s.wall1}
	}
	children := map[int][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], iv(s))
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		p := iv(s)
		self[s.id] = p.hi - p.lo - covered(p.lo, p.hi, children[s.id])
	}
	return self
}

// ledger is the per-layer CPU self time of a set of traced requests.
type ledger struct {
	requests int
	rootCPU  float64            // total root CPU, ns
	self     map[string]float64 // layer -> summed self CPU, ns
	count    map[string]int     // layer -> span count
	bytes    map[string]float64 // layer -> summed span bytes
}

// rootName names a request's root span; its self time is the part of
// the request no layer call covers.
const rootName = "request"

// buildLedger folds spans into per-layer self times.
func buildLedger(spans []span) ledger {
	self := selfTimes(spans, true)
	l := ledger{self: map[string]float64{}, count: map[string]int{}, bytes: map[string]float64{}}
	for _, s := range spans {
		if s.name == rootName {
			l.requests++
			l.rootCPU += float64(s.cpu1 - s.cpu0)
		}
		l.self[s.name] += float64(self[s.id])
		l.count[s.name]++
		l.bytes[s.name] += float64(s.bytes)
	}
	return l
}

// perRequest is a layer's mean self CPU per request, in ns.
func (l ledger) perRequest(name string) float64 {
	if l.requests == 0 {
		return 0
	}
	return l.self[name] / float64(l.requests)
}

// layers returns the ledger's layer names, heaviest first, root last.
func (l ledger) layers() []string {
	var names []string
	for n := range l.self {
		if n != rootName {
			names = append(names, n)
		}
	}
	slices.SortFunc(names, func(a, b string) int {
		if l.self[a] != l.self[b] {
			if l.self[a] > l.self[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(a, b)
	})
	return append(names, rootName)
}

// writeSpans writes every span as one tab-separated line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "req\tid\tparent\tname\tcpu_start_ns\tcpu_end_ns\twall_start_ns\twall_end_ns\tbytes")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			s.req, s.id, s.parent, s.name, s.cpu0, s.cpu1, s.wall0, s.wall1, s.bytes)
	}
	return bw.Flush()
}
