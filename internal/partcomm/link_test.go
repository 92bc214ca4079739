package partcomm

import (
	"math"
	"testing"
	"testing/quick"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/sortx"
	"earlybird/internal/stats"
	"earlybird/internal/workload"
)

// link is the reference serial wire the strategies' one-step linkSend
// replaced: transfers occupy it back-to-back, each priced by
// Fabric.TransferTime at send time. The zero value of busy means the
// link is free from time 0. The oracle strategies below schedule every
// message through it, as the strategies did before they priced each
// message size once.
type link struct {
	fabric network.Fabric
	busy   float64
	sent   int // messages pushed
	bytes  int // payload bytes pushed
}

// newLink returns an idle link over the fabric.
func newLink(f network.Fabric) *link {
	return &link{fabric: f}
}

// Send schedules a message of the given size that becomes ready at time
// ready (seconds) and returns its completion time. The link serialises:
// the message starts no earlier than the previous one finished.
func (l *link) Send(ready float64, bytes int) (done float64) {
	start := ready
	if l.busy > start {
		start = l.busy
	}
	done = start + l.fabric.TransferTime(bytes)
	l.busy = done
	l.sent++
	l.bytes += bytes
	return done
}

// BusyUntil returns the time the link becomes free.
func (l *link) BusyUntil() float64 { return l.busy }

// Stats returns the number of messages and payload bytes pushed.
func (l *link) Stats() (messages, payloadBytes int) { return l.sent, l.bytes }

// Reset returns the link to idle at time 0.
func (l *link) Reset() {
	l.busy = 0
	l.sent = 0
	l.bytes = 0
}

func TestLinkSerialisation(t *testing.T) {
	f := network.Fabric{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9}
	l := newLink(f)
	// Two messages ready at t=0: the second starts after the first.
	d1 := l.Send(0, 1000) // 0 + 1us + 1us = 2us
	d2 := l.Send(0, 1000) // starts at 2us -> 4us
	if math.Abs(d1-2e-6) > 1e-15 || math.Abs(d2-4e-6) > 1e-15 {
		t.Fatalf("d1=%v d2=%v", d1, d2)
	}
	// A message ready after the link idles starts at its ready time.
	d3 := l.Send(10e-6, 1000)
	if math.Abs(d3-12e-6) > 1e-15 {
		t.Fatalf("d3=%v", d3)
	}
	if l.BusyUntil() != d3 {
		t.Fatalf("busy=%v", l.BusyUntil())
	}
	msgs, bytes := l.Stats()
	if msgs != 3 || bytes != 3000 {
		t.Fatalf("stats %d/%d", msgs, bytes)
	}
	l.Reset()
	if l.BusyUntil() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLinkCompletionMonotoneProperty(t *testing.T) {
	f := network.OmniPath()
	check := func(readies []float64, sizes []uint16) bool {
		l := newLink(f)
		prev := 0.0
		for i, r := range readies {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				r = 0
			}
			size := 0
			if i < len(sizes) {
				size = int(sizes[i])
			}
			done := l.Send(r, size)
			if done < prev || done < r {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// oracle evaluates the built-in strategies as they were written over
// the reference link: one Send, so one Fabric.TransferTime, per
// message, and Binned stepping bin by bin. An EWMABinned oracle keeps
// its own prediction, so one oracle must see the blocks in the order
// the strategy under test does.
type oracle struct {
	predicted float64
	seen      bool
}

func (o *oracle) finish(s Strategy, arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	switch s := s.(type) {
	case Bulk:
		return oracleBulk(arrivals, bytesPerPart, f)
	case FineGrained:
		return oracleFineGrained(arrivals, bytesPerPart, f)
	case Binned:
		return oracleBinned(s.TimeoutSec, arrivals, bytesPerPart, f)
	case CountThreshold:
		return oracleCountThreshold(s.K, arrivals, bytesPerPart, f)
	case LaggardAware:
		return oracleLaggardAware(s.ThresholdSec, arrivals, bytesPerPart, f)
	case Hybrid:
		if len(arrivals) == 0 {
			return 0
		}
		cut := s.IQRCutoffSec
		if cut <= 0 {
			cut = f.TransferTime(bytesPerPart)
		}
		if stats.IQRSorted(arrivals) > cut {
			return oracleFineGrained(arrivals, bytesPerPart, f)
		}
		return oracleBulk(arrivals, bytesPerPart, f)
	case *EWMABinned:
		return o.ewmaBinned(s, arrivals, bytesPerPart, f)
	}
	panic("oracle: no reference for strategy " + s.Name())
}

func oracleBulk(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	return arrivals[len(arrivals)-1] + f.TransferTime(bytesPerPart*len(arrivals))
}

func oracleFineGrained(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	l := newLink(f)
	done := 0.0
	for _, t := range arrivals {
		if d := l.Send(t, bytesPerPart); d > done {
			done = d
		}
	}
	return done
}

func oracleBinned(timeout float64, arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	if timeout <= 0 {
		return oracleBulk(arrivals, bytesPerPart, f)
	}
	tmax := arrivals[len(arrivals)-1]
	if !((tmax-arrivals[0])/timeout <= MaxBinsPerBlock) {
		return math.NaN()
	}
	l := newLink(f)
	done := 0.0
	i := 0
	for flush := arrivals[0] + timeout; i < len(arrivals); flush += timeout {
		if flush > tmax {
			flush = tmax
		}
		count := 0
		for i+count < len(arrivals) && arrivals[i+count] <= flush {
			count++
		}
		if count > 0 {
			if d := l.Send(flush, bytesPerPart*count); d > done {
				done = d
			}
			i += count
		}
	}
	return done
}

func oracleCountThreshold(k int, arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	l := newLink(f)
	done := 0.0
	pending := 0
	for i, t := range arrivals {
		pending++
		if pending >= k || i == len(arrivals)-1 {
			if d := l.Send(t, bytesPerPart*pending); d > done {
				done = d
			}
			pending = 0
		}
	}
	return done
}

func oracleLaggardAware(threshold float64, arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	n := len(arrivals)
	if n == 0 {
		return 0
	}
	cut := stats.PercentileSorted(arrivals, 50) + threshold
	l := newLink(f)
	done := 0.0
	late := 0
	for _, t := range arrivals {
		if t <= cut {
			if d := l.Send(t, bytesPerPart); d > done {
				done = d
			}
		} else {
			late++
		}
	}
	if late > 0 {
		if d := l.Send(arrivals[n-1], bytesPerPart*late); d > done {
			done = d
		}
	}
	return done
}

func (o *oracle) ewmaBinned(e *EWMABinned, arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	floor := e.MinTimeoutSec
	if floor <= 0 {
		floor = DefaultEWMAMinTimeoutSec
	}
	timeout := o.predicted
	if !o.seen {
		timeout = e.InitTimeoutSec
		if timeout <= 0 {
			timeout = 1e-3
		}
	}
	if timeout < floor {
		timeout = floor
	}
	finish := oracleBinned(timeout, arrivals, bytesPerPart, f)
	iqr := stats.IQRSorted(arrivals)
	if !o.seen {
		o.predicted, o.seen = iqr, true
	} else {
		a := e.alpha()
		o.predicted = a*iqr + (1-a)*o.predicted
	}
	return finish
}

// sameBits reports whether two finish times are the same float64 bits,
// NaN matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// builtinStrategies is every built-in strategy at the given bin
// timeout, fresh, in a fixed order.
func builtinStrategies(timeout float64) []Strategy {
	return []Strategy{
		Bulk{}, FineGrained{}, Binned{TimeoutSec: timeout},
		CountThreshold{K: 1}, CountThreshold{K: 4}, CountThreshold{K: 48},
		LaggardAware{ThresholdSec: 1e-3}, Hybrid{}, Hybrid{IQRCutoffSec: 1e-4},
		&EWMABinned{Alpha: 0.2}, &EWMABinned{Alpha: 0.7, MinTimeoutSec: 50e-6},
	}
}

// checkAgainstOracle evaluates every built-in strategy at timeout over
// each block in order and fails on the first finish time whose bits
// differ from the oracle's.
func checkAgainstOracle(t *testing.T, what string, blocks [][]float64, timeout float64, bytesPerPart int, f network.Fabric) {
	t.Helper()
	got, want := builtinStrategies(timeout), builtinStrategies(timeout)
	oracles := make([]oracle, len(want))
	for b, arrivals := range blocks {
		for k, s := range got {
			g := s.FinishTime(arrivals, bytesPerPart, f)
			w := oracles[k].finish(want[k], arrivals, bytesPerPart, f)
			if !sameBits(g, w) {
				t.Fatalf("%s, timeout %g s, %d B/partition: %s finishes block %d at %v (%#016x), the link oracle at %v (%#016x)\narrivals %v",
					what, timeout, bytesPerPart, s.Name(), b, g, math.Float64bits(g), w, math.Float64bits(w), arrivals)
			}
		}
	}
}

// sortedBlocks returns every process iteration of a static fill of
// model at cfg, each sorted as the exact pass sorts it.
func sortedBlocks(t *testing.T, app string, cfg cluster.Config) [][]float64 {
	t.Helper()
	model, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]float64
	col.Dataset().EachProcessIteration(func(_, _, _ int, xs []float64) {
		b := append([]float64(nil), xs...)
		sortx.Sort(b)
		blocks = append(blocks, b)
	})
	return blocks
}

// TestStrategiesBitIdenticalToLink pins the priced serial link: every
// built-in strategy's FinishTime — FineGrained, CountThreshold and
// LaggardAware pricing each message size once, Binned walking arrival
// by arrival, and Hybrid and EWMABinned through them — equals, bit for bit, the same strategy written over
// the reference link, on every block of a 2x8x200x48 fill of each app
// and on the edge cases of the walk. A default-trio StrategyAccumulator
// must also hold the oracle's sums, in the oracle's order.
func TestStrategiesBitIdenticalToLink(t *testing.T) {
	f := network.OmniPath()
	cfg := cluster.Config{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
	timeouts := []float64{0.25e-3, 1e-3, 2e-3}
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		blocks := sortedBlocks(t, app, cfg)
		for _, timeout := range timeouts {
			checkAgainstOracle(t, app, blocks, timeout, 1<<20, f)
		}
		checkAgainstOracle(t, app, blocks, 1e-3, 0, f)

		trio := []Strategy{Bulk{}, FineGrained{}, Binned{TimeoutSec: 1e-3}}
		acc := NewStrategyAccumulator(trio, 1<<20, f)
		var bulkSum, potentialSum float64
		sums := make([]float64, len(trio))
		var o oracle
		for _, b := range blocks {
			acc.ObserveSorted(b)
			bulkSum += oracleBulk(b, 1<<20, f)
			potentialSum += PotentialOverlap(b)
			for k, s := range trio {
				sums[k] += o.finish(s, b, 1<<20, f)
			}
		}
		if !sameBits(acc.bulkSum, bulkSum) || !sameBits(acc.potentialSum, potentialSum) {
			t.Errorf("%s: accumulator bulk/potential sums %v/%v, oracle %v/%v",
				app, acc.bulkSum, acc.potentialSum, bulkSum, potentialSum)
		}
		for k, s := range trio {
			if !sameBits(acc.finishSums[k], sums[k]) {
				t.Errorf("%s: accumulator %s sum %v, oracle %v", app, s.Name(), acc.finishSums[k], sums[k])
			}
		}
	}

	const T = 1e-3
	edges := map[string][]float64{
		"one arrival":          {26.3e-3},
		"all equal":            {5e-3, 5e-3, 5e-3, 5e-3, 5e-3},
		"timeout wider":        {1e-3, 1.2e-3, 1.5e-3, 1.9e-3},
		"empty bins":           {0, 0.1e-3, 3.7e-3, 3.71e-3, 9.99e-3, 10e-3, 25e-3},
		"signed zeros":         {math.Copysign(0, -1), 0, 0, 2e-3},
		"negative arrivals":    {-3e-3, -2.5e-3, -1e-3, 0.5e-3},
		"just under bin cap":   {0, 1e-3, (MaxBinsPerBlock - 0.5) * T},
		"just over bin cap":    {0, 1e-3, (MaxBinsPerBlock + 0.5) * T},
		"one bin of 81":        append(make([]float64, 80), 1e-3),
		"bins of 63, 64 and 1": append(append(make([]float64, 63), repeat(2e-3, 64)...), 4e-3),
	}
	for name, arrivals := range edges {
		for _, timeout := range []float64{T, 0, 0.25e-3, 1} {
			for _, bytes := range []int{1 << 20, 4096, 0, -8} {
				checkAgainstOracle(t, name, [][]float64{arrivals}, timeout, bytes, f)
			}
		}
	}
	if got := (Binned{TimeoutSec: T}).FinishTime(edges["just over bin cap"], 1<<20, f); !math.IsNaN(got) {
		t.Errorf("a span over MaxBinsPerBlock bins finished at %v, want NaN", got)
	}
	if got := (Binned{TimeoutSec: T}).FinishTime(edges["just under bin cap"], 1<<20, f); math.IsNaN(got) {
		t.Error("a span just under MaxBinsPerBlock bins was refused")
	}
}

func repeat(x float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = x
	}
	return xs
}
