package share

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCoalescerJoinsInFlight(t *testing.T) {
	// Deterministic singleflight proof: the first caller blocks inside
	// run until every other caller has had time to join; exactly one
	// execution happens and everyone gets its result.
	co := New[string, int](8)
	key := "minife"

	const n = 6
	started := make(chan struct{})
	release := make(chan struct{})
	var executions int
	var wg sync.WaitGroup
	sources := make([]Source, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, sources[0] = co.Do(key, func() (int, bool) {
			close(started)
			<-release
			executions++
			return 0, true
		})
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sources[i] = co.Do(key, func() (int, bool) {
				t.Error("second execution ran")
				return 0, true
			})
		}(i)
	}
	// Give the joiners time to attach to the flight, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if executions != 1 {
		t.Fatalf("executions = %d, want 1", executions)
	}
	if sources[0] != Executed {
		t.Errorf("first caller source = %q", sources[0])
	}
	for i := 1; i < n; i++ {
		if sources[i] != Coalesced {
			t.Errorf("caller %d source = %q, want coalesced", i, sources[i])
		}
	}
	// And the finished flight landed in the result cache.
	if _, src := co.Do(key, func() (int, bool) {
		t.Error("cached key re-executed")
		return 0, true
	}); src != Cached {
		t.Errorf("post-flight source = %q, want result-cache", src)
	}
}

func TestCoalescerLRUEviction(t *testing.T) {
	co := New[int, int](2)
	keys := []int{1, 2, 3}
	for _, k := range keys {
		co.Do(k, func() (int, bool) { return 0, true })
	}
	if co.Len() != 2 {
		t.Fatalf("cache size = %d, want 2", co.Len())
	}
	// keys[0] was evicted; keys[1] and keys[2] remain.
	if _, src := co.Do(keys[0], func() (int, bool) { return 0, true }); src != Executed {
		t.Errorf("evicted key source = %q, want executed", src)
	}
	if _, src := co.Do(keys[2], func() (int, bool) {
		t.Error("resident key re-executed")
		return 0, true
	}); src != Cached {
		t.Errorf("resident key source = %q, want result-cache", src)
	}
}

// TestSetCapTrimsAndCounts: shrinking the capacity evicts from the LRU
// end, and the count of cached values follows; capacity <= 0 empties the
// cache.
func TestSetCapTrimsAndCounts(t *testing.T) {
	co := New[int, int](4)
	for k := 1; k <= 4; k++ {
		co.Do(k, func() (int, bool) { return k, true })
	}
	co.Do(1, func() (int, bool) { return -1, true }) // 2 becomes the LRU value
	co.SetCap(2)
	if co.Len() != 2 {
		t.Fatalf("len %d after SetCap(2), want 2", co.Len())
	}
	for _, k := range []int{1, 4} {
		if _, src := co.Do(k, func() (int, bool) { return -1, true }); src != Cached {
			t.Errorf("key %d source %q after the trim, want result-cache", k, src)
		}
	}
	co.SetCap(0)
	co.Do(5, func() (int, bool) { return 5, true })
	if co.Len() != 0 {
		t.Fatalf("len %d after SetCap(0), want 0", co.Len())
	}
}

// TestFanOutRunsEveryJobOnBoundedWorkers: every index runs exactly
// once, never on more goroutines than asked.
func TestFanOutRunsEveryJobOnBoundedWorkers(t *testing.T) {
	for _, workers := range []int{1, 3} {
		const n = 50
		var ran [n]atomic.Int32
		var live, peak atomic.Int32
		FanOut(n, workers, func(i int) {
			cur := live.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			live.Add(-1)
			ran[i].Add(1)
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers %d: job %d ran %d times", workers, i, got)
			}
		}
		if peak.Load() > int32(workers) {
			t.Errorf("workers %d: %d jobs ran at once", workers, peak.Load())
		}
	}
}
