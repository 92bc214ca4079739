package partcomm

import (
	"math"
	"testing"

	"earlybird/internal/network"
)

func TestCountThresholdName(t *testing.T) {
	if (CountThreshold{K: 8}).Name() != "every8" {
		t.Fatal("name")
	}
}

func TestCountThresholdKOneEqualsFineGrained(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{1e-3, 5e-3, 9e-3, 20e-3, 21e-3}
	a := (CountThreshold{K: 1}).FinishTime(arr, 64<<10, f)
	b := (FineGrained{}).FinishTime(arr, 64<<10, f)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("K=1 %v != fine-grained %v", a, b)
	}
}

func TestCountThresholdKAllEqualsBulk(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{1e-3, 5e-3, 9e-3, 20e-3}
	a := (CountThreshold{K: len(arr)}).FinishTime(arr, 64<<10, f)
	b := (Bulk{}).FinishTime(arr, 64<<10, f)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("K=n %v != bulk %v", a, b)
	}
}

func TestCountThresholdIntermediate(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{10e-3, 20e-3, 30e-3, 40e-3, 50e-3, 60e-3, 70e-3, 80e-3}
	const part = 1 << 20
	bulk := (Bulk{}).FinishTime(arr, part, f)
	every2 := (CountThreshold{K: 2}).FinishTime(arr, part, f)
	if every2 >= bulk {
		t.Fatalf("every2 %v not better than bulk %v on spread arrivals", every2, bulk)
	}
	// Flush count: 4 messages of 2 partitions each.
	l := newLink(f)
	want := 0.0
	for i := 1; i < len(arr); i += 2 {
		want = l.Send(arr[i], 2*part)
	}
	if msgs, _ := l.Stats(); msgs != 4 || every2 != want {
		t.Fatalf("every2 %v over %d messages, want %v over 4 pairs", every2, msgs, want)
	}
}

func TestCountThresholdInvalidKClamps(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{1e-3, 2e-3}
	a := (CountThreshold{K: 0}).FinishTime(arr, 100, f)
	b := (CountThreshold{K: 1}).FinishTime(arr, 100, f)
	if a != b {
		t.Fatal("K<1 should clamp to 1")
	}
	if (CountThreshold{K: 3}).FinishTime(nil, 100, f) != 0 {
		t.Fatal("empty arrivals")
	}
}

func TestCountThresholdNeverBeatsPhysics(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{26.3e-3, 26.31e-3, 26.32e-3, 30e-3}
	for k := 1; k <= 4; k++ {
		got := (CountThreshold{K: k}).FinishTime(arr, 4096, f)
		if got < arr[len(arr)-1] {
			t.Fatalf("K=%d finished %v before last arrival", k, got)
		}
	}
}
