package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earlybird/internal/trace"
)

// TestBinTimeoutFloorAndSpanCap: -bin-timeout-ms below the
// partcomm.MinBinTimeoutSec floor is refused before any study runs, and
// an -in dataset with a block wider than partcomm.MaxBinsPerBlock bins
// of the timeout is refused instead of analysed.
func TestBinTimeoutFloorAndSpanCap(t *testing.T) {
	if _, err := runCmd(t, "-app", "minife", "-trials", "1", "-iters", "4", "-bin-timeout-ms", "0.000001"); err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("1 ns timeout: error %v, want a floor violation", err)
	}
	ds := trace.NewDataset("wide", 1, 1, 1, 2)
	ds.Times[0][0][0] = []float64{0.01, 1e4}
	path := filepath.Join(t.TempDir(), "wide.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := runCmd(t, "-in", path); err == nil || !strings.Contains(err.Error(), "bins") {
		t.Fatalf("1e4 s span at 1 ms: error %v, want a bin-cap violation", err)
	}
}
