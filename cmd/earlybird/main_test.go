package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"earlybird/internal/serve"
	"earlybird/internal/trace"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := runMain(args, &out, &errOut)
	return out.String(), err
}

func newService(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRunMainConflicts(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":       {"-nope"},
		"unexpected args":    {"extra"},
		"no app or in":       {},
		"remote plus fleet":  {"-app", "minife", "-remote", "http://x", "-fleet", "http://y"},
		"remote without app": {"-remote", "http://x"},
		"fleet without app":  {"-fleet", "http://x"},
		"fleet bad url":      {"-app", "minife", "-fleet", "not-a-url"},
		"fleet sweep drops feasibility flags": {
			"-app", "minife", "-fleet", "http://x", "-bin-timeout-ms", "0.5"},
		"missing input file":      {"-in", "does-not-exist.json"},
		"unknown app":             {"-app", "lulesh"},
		"bad geometry":            {"-app", "minife", "-geometry", "3x4"},
		"bad dlb":                 {"-app", "minife", "-dlb", "nope"},
		"dlb cross param":         {"-app", "minife", "-dlb", "lewi:reaction=3"},
		"store-dir without fleet": {"-app", "minife", "-store-dir", "x"},
	}
	for name, args := range cases {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A flag that cannot take a local dataset is refused by name, on a
	// dataset that exists, so no other error can stand in for the
	// conflict's.
	path := writeDataset(t)
	for flag, args := range map[string][]string{
		"-dlb":    {"-in", path, "-dlb", "lewi"},
		"-remote": {"-remote", "http://x", "-in", path},
		"-fleet":  {"-fleet", "http://x", "-in", path},
	} {
		if _, err := runCmd(t, args...); err == nil || !strings.Contains(err.Error(), flag) || !strings.Contains(err.Error(), "-in") {
			t.Errorf("%s with -in: error %v, want one naming %s and -in", flag, err, flag)
		}
	}
}

// writeDataset writes a valid two-sample dataset and returns its path.
func writeDataset(t *testing.T) string {
	t.Helper()
	ds := trace.NewDataset("fe", 1, 1, 1, 2)
	ds.Times[0][0][0] = []float64{0.01, 0.02}
	path := filepath.Join(t.TempDir(), "fe.json")
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

// TestRunMainGeometryWithIn: -geometry cannot resize a pre-collected
// dataset, so it is refused with -in rather than ignored.
func TestRunMainGeometryWithIn(t *testing.T) {
	path := writeDataset(t)
	if _, err := runCmd(t, "-in", path); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "-in", path, "-geometry", "quick"); err == nil || !strings.Contains(err.Error(), "-geometry") {
		t.Fatalf("-in with -geometry: error %v, want a -geometry refusal", err)
	}
}

func TestRunMainLocalAssessment(t *testing.T) {
	out, err := runCmd(t, "-app", "minife", "-geometry", "1x8x10x48")
	if err != nil {
		t.Fatal(err)
	}
	// The assessment ends in the Section 5 verdict ("-> timeout-flush",
	// "-> fine-grained" or "-> sophisticated").
	if !strings.Contains(out, "potential overlap") || !strings.Contains(out, "-> ") {
		t.Fatalf("assessment verdict missing:\n%s", out)
	}
}

// TestRunMainGeometryDLB runs a local study through the shared -geometry
// and -dlb flags: an explicit shape with enough ranks for LeWI to fire,
// and an assessment that must differ from the static one on the same
// shape (the rebalanced dataset has different bits).
func TestRunMainGeometryDLB(t *testing.T) {
	static, err := runCmd(t, "-app", "minife", "-geometry", "1x4x12x48")
	if err != nil {
		t.Fatal(err)
	}
	lewi, err := runCmd(t, "-app", "minife", "-geometry", "1x4x12x48", "-dlb", "lewi")
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"static": static, "lewi": lewi} {
		if !strings.Contains(out, "-> ") {
			t.Fatalf("%s assessment verdict missing:\n%s", name, out)
		}
	}
	if static == lewi {
		t.Error("lewi rebalancing produced the static assessment verbatim")
	}
}

func TestRunMainLocalStrategies(t *testing.T) {
	out, err := runCmd(t, "-app", "minife", "-geometry", "1x8x8x48", "-strategies")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-> best") {
		t.Fatalf("frontier table missing:\n%s", out)
	}
}

// TestRunMainLocalStrategiesBinTimeout: an explicit -bin-timeout-ms
// replaces the local optimizer's timeout axis, as it does with -remote
// and -fleet.
func TestRunMainLocalStrategiesBinTimeout(t *testing.T) {
	out, err := runCmd(t, "-app", "minife", "-geometry", "1x8x8x48", "-strategies", "-bin-timeout-ms", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	binned := regexp.MustCompile(`binned\([0-9]+us\)`).FindAllString(out, -1)
	if len(binned) == 0 || slices.ContainsFunc(binned, func(s string) bool { return s != "binned(500us)" }) {
		t.Fatalf("binned strategies %v, want binned(500us) only:\n%s", binned, out)
	}
}

func TestRunMainRemote(t *testing.T) {
	ts := newService(t)
	out, err := runCmd(t, "-app", "minife", "-geometry", "1x8x8x48", "-remote", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served by "+ts.URL) {
		t.Fatalf("remote banner missing:\n%s", out)
	}
}

// TestRunMainRemoteDLB sends the -dlb flag over the /v1 policy envelope.
func TestRunMainRemoteDLB(t *testing.T) {
	ts := newService(t)
	out, err := runCmd(t, "-app", "minife", "-geometry", "1x4x8x48", "-dlb", "drom:reaction=2", "-remote", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served by "+ts.URL) || !strings.Contains(out, "-> ") {
		t.Fatalf("remote rebalanced assessment missing:\n%s", out)
	}
}

func TestRunMainRemoteStrategies(t *testing.T) {
	ts := newService(t)
	out, err := runCmd(t, "-app", "miniqmc", "-geometry", "1x8x8x48", "-strategies", "-remote", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-> best") {
		t.Fatalf("remote frontier missing:\n%s", out)
	}
}

// TestRunMainFleet federates a study across two in-process workers and
// renders the merged row.
func TestRunMainFleet(t *testing.T) {
	w1, w2 := newService(t), newService(t)
	out, err := runCmd(t, "-app", "minife", "-geometry", "2x8x8x48",
		"-dlb", "lewi", "-fleet", w1.URL+","+w2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "federated minife as 2 trial shards") {
		t.Fatalf("federation banner missing:\n%s", out)
	}
	if !strings.Contains(out, "recommendation:") {
		t.Fatalf("recommendation missing:\n%s", out)
	}
}

func TestRunMainFleetStrategies(t *testing.T) {
	w1 := newService(t)
	out, err := runCmd(t, "-app", "minife", "-geometry", "1x8x8x48", "-strategies",
		"-bin-timeout-ms", "0.5", "-fleet", w1.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "federated strategy grid over fleet of 1 healthy workers") || !strings.Contains(out, "-> best") {
		t.Fatalf("federated frontier missing:\n%s", out)
	}
	// An explicit -bin-timeout-ms replaces the default timeout axis.
	if !strings.Contains(out, "binned(500us)") {
		t.Fatalf("custom bin timeout not evaluated:\n%s", out)
	}
	if strings.Contains(out, "binned(250us)") {
		t.Fatalf("default timeout grid leaked in despite explicit -bin-timeout-ms:\n%s", out)
	}
}

func TestRunMainFleetNoHealthyWorkers(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	if _, err := runCmd(t, "-app", "minife", "-fleet", dead.URL); err == nil {
		t.Fatal("expected error with no healthy workers")
	}
}

// TestRunMainFleetStore: a federated run with -store-dir persists its
// merged cell, and a repeat invocation — even against a fleet whose
// only worker is long dead — answers from the durable store.
func TestRunMainFleetStore(t *testing.T) {
	dir := t.TempDir()
	w := newService(t)
	cold, err := runCmd(t, "-app", "minife", "-geometry", "2x8x8x48",
		"-fleet", w.URL, "-store-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold, "federated minife as") {
		t.Fatalf("cold run did not federate:\n%s", cold)
	}

	dead := httptest.NewServer(nil)
	dead.Close()
	warm, err := runCmd(t, "-app", "minife", "-geometry", "2x8x8x48",
		"-fleet", dead.URL, "-store-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "served minife from the durable result store (no shards dispatched)") {
		t.Fatalf("warm run not served from the store:\n%s", warm)
	}
	if !strings.Contains(warm, "recommendation:") {
		t.Fatalf("warm run missing the merged row:\n%s", warm)
	}
	// The store hit carries the exact bytes of the federated row.
	trim := func(s string) string {
		_, rest, ok := strings.Cut(s, "\n")
		if !ok {
			t.Fatalf("one-line output: %q", s)
		}
		return rest
	}
	if trim(cold) != trim(warm) {
		t.Errorf("store-served row differs from the federated row:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}
