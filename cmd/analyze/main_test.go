package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/workload"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := runMain(args, &out, &errOut)
	return out.String(), err
}

// writeDataset collects a tiny dataset file for the file-based paths.
func writeDataset(t *testing.T, name string) string {
	t.Helper()
	ds, err := cluster.Run(workload.DefaultMiniFE(),
		cluster.Config{Trials: 1, Ranks: 2, Iterations: 4, Threads: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMainErrors(t *testing.T) {
	ds := writeDataset(t, "fe.json")
	cases := map[string][]string{
		"unknown flag":         {"-nope"},
		"no inputs":            {},
		"app plus files":       {"-app", "minife", ds},
		"app plus percentiles": {"-app", "minife", "-percentiles", "p.csv"},
		"multi-input detail":   {"-hist", "10us", ds, ds},
		"missing file":         {"-in", "does-not-exist.json"},
		"unknown bin width":    {"-in", ds, "-hist", "7ns"},
		"geometry plus files":  {"-geometry", "quick", ds},
	}
	for name, args := range cases {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunMainStreaming(t *testing.T) {
	out, err := runCmd(t, "-app", "miniqmc", "-geometry", "1x1x3x8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "streaming miniqmc") || !strings.Contains(out, "never materialised") {
		t.Fatalf("streaming banner missing:\n%s", out)
	}
	if !strings.Contains(out, "summary:") {
		t.Fatalf("summary line missing:\n%s", out)
	}
}

func TestRunMainSingleFileDetailed(t *testing.T) {
	ds := writeDataset(t, "fe.json")
	pcsv := filepath.Join(t.TempDir(), "p.csv")
	out, err := runCmd(t, "-in", ds, "-hist", "1ms", "-percentiles", pcsv)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset minife", "Table 1", "early-bird feasibility", "application histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(pcsv); err != nil {
		t.Errorf("percentile CSV not written: %v", err)
	}
}

func TestRunMainCampaign(t *testing.T) {
	a := writeDataset(t, "a.json")
	b := writeDataset(t, "b.json")
	out, err := runCmd(t, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "minife"); got < 2 {
		t.Fatalf("expected both datasets rendered:\n%s", out)
	}
}
