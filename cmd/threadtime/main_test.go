package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earlybird/internal/trace"
)

// tinyArgs keeps collection tests fast.
var tinyArgs = []string{"-geometry", "1x1x3x8"}

func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := run(args, &out, &errOut)
	return out.String(), errOut.String(), err
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":    {"-nope"},
		"unexpected args": {"extra"},
		"unknown app":     append([]string{"-app", "nope"}, tinyArgs...),
		"unknown format":  append([]string{"-app", "minife", "-format", "xml"}, tinyArgs...),
	}
	for name, args := range cases {
		if _, _, err := runCmd(t, args...); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	out, _, err := runCmd(t, append([]string{"-app", "minimd"}, tinyArgs...)...)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := trace.ReadJSON(strings.NewReader(out))
	if err != nil {
		t.Fatalf("output is not a readable dataset: %v", err)
	}
	if ds.App != "minimd" || ds.Trials != 1 || ds.Iterations != 3 || ds.Threads != 8 {
		t.Fatalf("dataset geometry %+v", ds)
	}
}

func TestRunCSVToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	stdout, _, err := runCmd(t, append([]string{"-app", "minife", "-format", "csv", "-o", path}, tinyArgs...)...)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("-o wrote to stdout: %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ",") || len(strings.Split(string(data), "\n")) < 3 {
		t.Fatalf("suspicious CSV output: %q", string(data[:min(len(data), 120)]))
	}
}

// TestRunHelpIsNotAnError: -h prints usage and exits 0 (flag.ErrHelp
// must not propagate as a failure).
func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of threadtime") {
		t.Fatalf("usage not printed:\n%s", errOut.String())
	}
}
