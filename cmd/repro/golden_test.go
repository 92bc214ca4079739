package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the report golden from the current output")

// TestReportGolden pins repro's default report, the paper geometry at
// seed 1, byte for byte: every number the reproduction reports is in
// it, so a change that moves one fails here and the golden's diff shows
// which. Regenerate with
//
//	go test ./cmd/repro -run ReportGolden -update
//
// after an intentional change, and say in the change what moved.
func TestReportGolden(t *testing.T) {
	got, err := runCmd(t)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("report diverged from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
