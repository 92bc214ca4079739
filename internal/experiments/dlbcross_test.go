package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/trace"
)

// TestDLBCrossGoldenQuick pins the exact E15 rendering — the cmd/repro
// -exp dlb table — at the quick geometry. Every (app, policy) fill is a
// pure function of (model, geometry, seed, policy) and the balancers are
// deterministic, so the table is byte-stable; regenerate with
//
//	go test ./internal/experiments -run DLBCrossGolden -update
//
// after an intentional change to the policies, the grid or the
// rendering.
func TestDLBCrossGoldenQuick(t *testing.T) {
	views := trace.NestedViews()
	suite := NewSuiteOn(Quick(), engine.New(0))
	var buf bytes.Buffer
	suite.WriteDLBReport(&buf)

	path := filepath.Join("testdata", "e15_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("E15 output diverged from %s.\n--- got ---\n%s--- want ---\n%s", path, buf.Bytes(), want)
	}

	// The cross stays on the cursor path: no nested tensor views.
	if got := (trace.NestedViews() - views); got != 0 {
		t.Errorf("nested views = %d after E15, want 0", got)
	}
}

// TestE15CrossSanity checks the experiment's semantic floor at quick
// geometry: the full (app x policy) grid is present, static cells match
// the E14 frontier exactly (same dataset, same grid), and each policy
// axis point carries its own dataset (distinct cache entries).
func TestE15CrossSanity(t *testing.T) {
	suite := NewSuiteOn(Quick(), engine.New(0))
	cells := suite.E15DLBCross()
	policies := E15Policies()
	if len(cells) != len(AppNames)*len(policies) {
		t.Fatalf("%d cells, want %d", len(cells), len(AppNames)*len(policies))
	}

	e14 := suite.E14StrategyFrontier()
	seen := map[string]map[string]E15Cell{}
	for _, c := range cells {
		if c.Sweep.PotentialOverlapSec <= 0 {
			t.Errorf("%s/%s: potential overlap %v, want > 0", c.App, c.Policy.Name(), c.Sweep.PotentialOverlapSec)
		}
		if len(c.Sweep.Results) == 0 {
			t.Fatalf("%s/%s: empty sweep", c.App, c.Policy.Name())
		}
		if seen[c.App] == nil {
			seen[c.App] = map[string]E15Cell{}
		}
		seen[c.App][c.Policy.Name()] = c
	}
	for _, app := range AppNames {
		static, ok := seen[app][dlb.PolicyStatic]
		if !ok {
			t.Fatalf("%s: no static cell", app)
		}
		// The static column of E15 is E14 by construction.
		if static.Sweep.Best != e14[app].Best || static.Sweep.BestFinishSec != e14[app].BestFinishSec {
			t.Errorf("%s: static E15 cell diverges from E14 frontier: %v/%v vs %v/%v",
				app, static.Sweep.Best, static.Sweep.BestFinishSec, e14[app].Best, e14[app].BestFinishSec)
		}
	}
	// One dataset generation per (app, policy): the policies must not
	// share cache entries.
	if got, want := suite.Engine().Executions(), int64(len(AppNames)*len(policies)); got != want {
		t.Errorf("executions = %d, want %d (one per app x policy)", got, want)
	}
}
