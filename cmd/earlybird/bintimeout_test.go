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

// TestPartBytesRange: -part-bytes below zero is refused on the local
// path and with -remote alike, instead of assessing every strategy as
// finishing together with a negative overlap; zero is the 1 MiB
// default locally, as it is at the service.
func TestPartBytesRange(t *testing.T) {
	ts := newService(t)
	study := []string{"-app", "minife", "-trials", "1", "-iters", "4"}
	for name, args := range map[string][]string{
		"local":  append(study, "-part-bytes", "-5"),
		"remote": append(study, "-part-bytes", "-5", "-remote", ts.URL),
	} {
		if _, err := runCmd(t, args...); err == nil || !strings.Contains(err.Error(), "part") {
			t.Errorf("%s: error %v, want a -part-bytes refusal", name, err)
		}
	}
	zero, err := runCmd(t, append(study, "-part-bytes", "0")...)
	if err != nil {
		t.Fatal(err)
	}
	if def, _ := runCmd(t, study...); zero != def {
		t.Errorf("-part-bytes 0 printed\n%s\nwant the default's\n%s", zero, def)
	}
}
