package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// maxParseWall is the per-input wall bound of FuzzScenarioParse. Parse
// is linear in its input; the example scenarios parse in microseconds,
// so a second means a hang.
const maxParseWall = time.Second

// FuzzScenarioParse feeds arbitrary bytes to Parse, the hand-rolled
// YAML subset and the JSON form alike. It must not panic or take longer
// than maxParseWall. For an accepted spec with no path-backed trace
// source, Wire must be a fixed point: Parse accepts Wire's document and
// renders it back to the same bytes.
func FuzzScenarioParse(f *testing.F) {
	for _, glob := range []string{"../../examples/scenarios/*", "testdata/*"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			if info, err := os.Stat(path); err != nil || info.IsDir() {
				continue // testdata/fuzz: the saved corpus replays on its own
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name":"j","sources":[{"csv":"app,trial,rank,iteration,thread,compute_seconds\nfe,0,0,0,0,1\n"}],"alpha":"0.01"}`))
	f.Add([]byte("name: flow\nsources: [minife, {app: miniqmc}]\ngeometries: [1x2x5x4@7]\nnoise: [none, \"slowdown:prob=0.5,factor=2\"]\nlaggard_ms: 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		spec, err := Parse(data)
		if wall := time.Since(start); wall > maxParseWall {
			t.Fatalf("Parse took %v on %d bytes, over the %v bound", wall, len(data), maxParseWall)
		}
		if err != nil {
			return
		}
		for _, src := range spec.Sources {
			if src.Trace != "" {
				return // Wire would read the file system
			}
		}
		first, err := spec.Wire("")
		if err != nil {
			t.Fatalf("Wire refuses a parsed spec: %v", err)
		}
		back, err := Parse(first)
		if err != nil {
			t.Fatalf("Parse refuses Wire's output: %v\n%s", err, first)
		}
		second, err := back.Wire("")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Wire(Parse(Wire(s))) is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
