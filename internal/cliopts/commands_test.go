package cliopts

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"earlybird/internal/workload"
)

// TestCommandsShareVocabulary builds the four study commands and runs
// each with the same bad -geometry and -app values: every one refuses
// them with this package's error text before it prints anything, and
// accepts a named geometry with a seed.
func TestCommandsShareVocabulary(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/earlybird", "./cmd/analyze", "./cmd/threadtime", "./cmd/repro")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	errText := func(err error) string {
		if err == nil {
			t.Fatal("expected a refusal")
		}
		return err.Error()
	}
	_, zeroTrials := ParseGeometry("0x8x10x48")
	_, threeDims := ParseGeometry("1x2x3")
	_, unknownApp := workload.ByName("nope")
	refusals := map[string]string{
		"-geometry=0x8x10x48": errText(zeroTrials),
		"-geometry=1x2x3":     errText(threeDims),
		"-app=nope":           errText(unknownApp),
	}
	for _, c := range []struct {
		name  string
		study []string // the rest of a small study the command runs
	}{
		{"earlybird", []string{"-app", "minife"}},
		{"analyze", []string{"-app", "minife"}},
		{"threadtime", []string{"-format", "csv"}},
		{"repro", []string{"-exp", "metrics"}}, // repro runs every app: no -app
	} {
		run := func(args ...string) (stdout, stderr string, err error) {
			var out, errOut bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.name), args...)
			cmd.Stdout, cmd.Stderr = &out, &errOut
			err = cmd.Run()
			return out.String(), errOut.String(), err
		}
		for flagArg, want := range refusals {
			if flagArg == "-app=nope" && c.name == "repro" {
				continue
			}
			stdout, stderr, err := run(append([]string{flagArg}, c.study...)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || stdout != "" || !strings.Contains(stderr, want) {
				t.Errorf("%s %s: err %v, stdout %q, stderr %q; want a refusal naming %q before any output",
					c.name, flagArg, err, stdout, stderr, want)
			}
		}
		if stdout, stderr, err := run(append([]string{"-geometry", "quick@3"}, c.study...)...); err != nil || stdout == "" {
			t.Errorf("%s -geometry quick@3: err %v, %d bytes of output, stderr %q", c.name, err, len(stdout), stderr)
		}
	}
}
