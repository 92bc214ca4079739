package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := runMain(args, &out, &errOut)
	return out.String(), err
}

func TestRunMainErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":       {"-nope"},
		"unexpected args":    {"extra"},
		"unknown experiment": {"-geometry", "quick", "-exp", "nope"},
		"bad geometry":       {"-geometry", "3x4"},
		"bad dlb":            {"-dlb", "nope"},
	}
	for name, args := range cases {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunMainTable1Quick(t *testing.T) {
	out, err := runCmd(t, "-geometry", "quick", "-exp", "table1")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		if !strings.Contains(out, app) {
			t.Errorf("table1 output missing %s:\n%s", app, out)
		}
	}
}

// TestRunMainGeometryDLB sizes a run with the shared -geometry syntax
// and rebases every suite dataset on a rebalancing policy via -dlb.
func TestRunMainGeometryDLB(t *testing.T) {
	static, err := runCmd(t, "-geometry", "1x4x12x48", "-exp", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	lewi, err := runCmd(t, "-geometry", "1x4x12x48", "-dlb", "lewi", "-exp", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		if !strings.Contains(static, app) {
			t.Errorf("metrics output missing %s:\n%s", app, static)
		}
	}
	// minife rebalances at this shape, so the suite-wide policy must
	// change the reported metrics.
	if static == lewi {
		t.Error("-dlb lewi reproduced the static metrics verbatim")
	}
}

func TestRunMainFigdir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "figs")
	out, err := runCmd(t, "-geometry", "quick", "-exp", "fig4", "-figdir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "figure data written") {
		t.Errorf("missing figdir confirmation:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 5 {
		t.Errorf("figdir holds %d files, want the full figure set", len(entries))
	}
}

// TestRunMainExperimentIDs: every ID of DESIGN.md's experiment index is
// an -exp value. Each renders what its experiment's name renders, E1
// and E2 are names of their own, and E13 is refused with the property
// test that checks it.
func TestRunMainExperimentIDs(t *testing.T) {
	names := map[string]string{
		"E1": "", "E2": "", "E3": "table1", "E4": "fig3", "E5": "fig4", "E6": "fig5", "E7": "fig6",
		"E8": "fig7", "E9": "fig8", "E10": "fig9", "E11": "metrics", "E12": "overlap",
		"E14": "strategies", "E15": "dlb",
	}
	for id, name := range names {
		out, err := runCmd(t, "-geometry", "1x4x12x48", "-exp", id)
		if err != nil || out == "" {
			t.Errorf("-exp %s: error %v, %d bytes of output", id, err, len(out))
			continue
		}
		if name == "" {
			continue
		}
		if want, err := runCmd(t, "-geometry", "1x4x12x48", "-exp", name); err != nil || out != want {
			t.Errorf("-exp %s differs from -exp %s (error %v)", id, name, err)
		}
	}
	if _, err := runCmd(t, "-exp", "E13"); err == nil || !strings.Contains(err.Error(), "TestComputeTimeCancelsSkew") {
		t.Errorf("-exp E13: error %v, want one naming its property test", err)
	}
}

// TestRunMainGeometrySeed: the @SEED suffix of -geometry seeds every
// suite dataset, so another seed prints other metrics.
func TestRunMainGeometrySeed(t *testing.T) {
	seven, err := runCmd(t, "-geometry", "1x2x20x8@7", "-exp", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	one, err := runCmd(t, "-geometry", "1x2x20x8@1", "-exp", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	if seven == one {
		t.Errorf("-geometry 1x2x20x8@7 printed the @1 metrics:\n%s", seven)
	}
}

// TestRunMainCampaignInSpecOrder: -exp campaign prints one row per spec
// in spec order, so two runs on four workers print the same bytes.
func TestRunMainCampaignInSpecOrder(t *testing.T) {
	args := []string{"-geometry", "1x2x12x48", "-workers", "4", "-exp", "campaign"}
	first, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 13 {
		t.Fatalf("%d lines, want 12 specs and a trailer:\n%s", len(lines), first)
	}
	for i, line := range lines[:12] {
		if want := fmt.Sprintf("spec %2d ", i); !strings.HasPrefix(line, want) {
			t.Errorf("line %d is %q, want it to start %q", i, line, want)
		}
	}
	if again, err := runCmd(t, args...); err != nil || again != first {
		t.Errorf("second run differs (error %v):\n%s\nfirst:\n%s", err, again, first)
	}
}
