package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestRealMonotonic(t *testing.T) {
	c := NewReal()
	prev := c.Now(0)
	for i := 0; i < 100; i++ {
		now := c.Now(0)
		if now < prev {
			t.Fatalf("real clock went backwards: %v < %v", now, prev)
		}
		prev = now
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	if v.Now(0) != 0 {
		t.Fatal("virtual clock should start at zero")
	}
	v.Advance(5 * time.Millisecond)
	if got := v.Now(3); got != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", got)
	}
	v.Advance(-time.Second) // ignored
	if got := v.Now(0); got != 5*time.Millisecond {
		t.Fatalf("negative advance changed time to %v", got)
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := v.Now(0); got != 8000*time.Nanosecond {
		t.Fatalf("concurrent advance lost updates: %v", got)
	}
}

func TestSkewedOffsetsPerCore(t *testing.T) {
	v := NewVirtual()
	v.Advance(time.Millisecond)
	s := NewSkewed(v, []time.Duration{0, 100 * time.Microsecond, -50 * time.Microsecond})
	if got := s.Now(0); got != time.Millisecond {
		t.Fatalf("core 0: %v", got)
	}
	if got := s.Now(1); got != time.Millisecond+100*time.Microsecond {
		t.Fatalf("core 1: %v", got)
	}
	if got := s.Now(2); got != time.Millisecond-50*time.Microsecond {
		t.Fatalf("core 2: %v", got)
	}
	// Wraparound and negative cores are tolerated.
	if got := s.Now(3); got != time.Millisecond {
		t.Fatalf("core 3 (wrap): %v", got)
	}
	_ = s.Now(-1)
}

func TestSkewedEmptyOffsets(t *testing.T) {
	v := NewVirtual()
	s := NewSkewed(v, nil)
	if got := s.Now(5); got != 0 {
		t.Fatalf("empty offsets should behave as zero skew, got %v", got)
	}
}

// The paper's core measurement claim (Section 3.1): elapsed time computed
// on a single core is invariant under per-core clock offsets.
func TestComputeTimeCancelsSkew(t *testing.T) {
	v := NewVirtual()
	skew := NewSkewed(v, []time.Duration{123 * time.Microsecond, -77 * time.Microsecond})
	for core := 0; core < 2; core++ {
		start := skew.Now(core)
		v.Advance(26300 * time.Microsecond) // one MiniFE-like region
		end := skew.Now(core)
		if elapsed := end - start; elapsed != 26300*time.Microsecond {
			t.Fatalf("core %d: elapsed %v, want 26.3ms", core, elapsed)
		}
	}
	// Raw cross-core comparison, by contrast, is off by the skew delta.
	a := skew.Now(0)
	b := skew.Now(1)
	if a == b {
		t.Fatal("expected cross-core readings to disagree under skew")
	}
}
