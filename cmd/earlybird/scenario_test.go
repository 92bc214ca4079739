package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const cliScenario = `
name: cli-test
sources: [minife, miniqmc]
geometries: [1x2x8x48]
bin_timeouts_ms: [1]
`

func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scen.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMainScenarioConflicts(t *testing.T) {
	path := writeScenario(t, cliScenario)
	cases := map[string][]string{
		"check without scenario":   {"-scenario-check"},
		"scenario with app":        {"-scenario", path, "-app", "minife"},
		"scenario with in":         {"-scenario", path, "-in", "fe.json"},
		"scenario with strategies": {"-scenario", path, "-strategies"},
		"scenario with geometry":   {"-scenario", path, "-geometry", "quick"},
		"scenario with dlb":        {"-scenario", path, "-dlb", "lewi"},
		"scenario with timeout":    {"-scenario", path, "-bin-timeout-ms", "0.5"},
		"scenario with store-dir":  {"-scenario", path, "-store-dir", "x"},
		"scenario remote+fleet":    {"-scenario", path, "-remote", "http://x", "-fleet", "http://y"},
		"scenario missing file":    {"-scenario", "does-not-exist.yaml"},
		"scenario bad doc":         {"-scenario", writeScenario(t, "sources: [lulesh]")},
	}
	for name, args := range cases {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunMainScenarioLocal(t *testing.T) {
	out, err := runCmd(t, "-scenario", writeScenario(t, cliScenario))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scenario cli-test: 2 cells") {
		t.Fatalf("plan header missing:\n%s", out)
	}
	if !strings.Contains(out, "coverage verified: 2 cells cover the declared cross-product exactly") {
		t.Fatalf("coverage proof missing:\n%s", out)
	}
	// One assessment line per cell, each ending in a Section 5 verdict.
	if n := strings.Count(out, "laggards"); n != 2 {
		t.Fatalf("want 2 result lines, got %d:\n%s", n, out)
	}
}

func TestRunMainScenarioCheck(t *testing.T) {
	out, err := runCmd(t, "-scenario", writeScenario(t, cliScenario), "-scenario-check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "coverage verified: 2 cells") {
		t.Fatalf("coverage proof missing:\n%s", out)
	}
	if strings.Contains(out, "laggards") {
		t.Fatalf("-scenario-check ran cells:\n%s", out)
	}
}

func TestRunMainScenarioRemote(t *testing.T) {
	ts := newService(t)
	out, err := runCmd(t, "-scenario", writeScenario(t, cliScenario), "-remote", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scenario cli-test compiled server-side by "+ts.URL+": 2 cells (2 unique studies)") {
		t.Fatalf("server-side banner missing:\n%s", out)
	}
	if n := strings.Count(out, "laggards"); n != 2 {
		t.Fatalf("want 2 result lines, got %d:\n%s", n, out)
	}
}

// TestRunMainScenarioFleet federates the wire-expressible cells of a
// scenario over two in-process workers.
func TestRunMainScenarioFleet(t *testing.T) {
	w1, w2 := newService(t), newService(t)
	out, err := runCmd(t, "-scenario", writeScenario(t, cliScenario),
		"-fleet", w1.URL+","+w2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "federated 2/2 cells over 2 healthy workers") {
		t.Fatalf("federation summary missing:\n%s", out)
	}
	if n := strings.Count(out, "fleet"); n < 2 {
		t.Fatalf("want 2 fleet-placed rows:\n%s", out)
	}
}

// TestRunMainScenarioFleetMatchesLocal: -fleet -scenario runs through an
// in-process coordinator and prints, cell for cell, the assessment lines
// the local campaign prints — for cells a worker ran and for the
// noise-wrapped cells, which are not wire-expressible and run at the
// coordinator.
func TestRunMainScenarioFleetMatchesLocal(t *testing.T) {
	path := writeScenario(t, cliScenario+`noise:
  - none
  - burst:rate=2,mean-ms=5,factor=3
`)
	local, err := runCmd(t, "-scenario", path)
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := newService(t), newService(t)
	federated, err := runCmd(t, "-scenario", path, "-fleet", w1.URL+","+w2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(federated, "federated 2/4 cells over 2 healthy workers") {
		t.Fatalf("federation summary missing:\n%s", federated)
	}
	// assessments keeps each result line's cell index and assessment,
	// dropping the fleet/local placement column of the federated form.
	assessments := func(out string, placed bool) []string {
		var lines []string
		for _, ln := range strings.Split(out, "\n") {
			if !strings.Contains(ln, "laggards") {
				continue
			}
			f := strings.Fields(ln)
			if placed {
				f = append(f[:1], f[2:]...)
			}
			lines = append(lines, strings.Join(f, " "))
		}
		return lines
	}
	want, got := assessments(local, false), assessments(federated, true)
	if len(want) != 4 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("assessment lines differ:\nlocal:\n%s\nfleet:\n%s", strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}
