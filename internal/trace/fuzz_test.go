package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// maxDecodeWall is the per-input wall bound of FuzzReadCSV. ReadCSV is
// linear in its input; the captured example trace (600 rows) reads in
// well under a millisecond, so a second means a hang.
const maxDecodeWall = time.Second

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. It must not panic or take
// longer than maxDecodeWall. An accepted input must have exactly one
// sample per data row, and writing the dataset and reading it back must
// be a fixed point of WriteCSV (datasets WriteCSV refuses, such as app
// names holding a quote, are skipped).
func FuzzReadCSV(f *testing.F) {
	captured, err := os.ReadFile("../../examples/scenarios/minife-captured.csv")
	if err != nil {
		f.Fatal(err)
	}
	const header = "app,trial,rank,iteration,thread,compute_seconds\n"
	f.Add(captured)
	f.Add([]byte(hostileIndexCSV))
	f.Add([]byte(header + "fe,0,0,0,0,1\nfe,0,0,0,1,1\nfe,0,0,0,1,2\n"))
	f.Add([]byte(header + "fe,0,0,0,0,1\nfe,0,0,1,1,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		d, err := ReadCSV(bytes.NewReader(data))
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("ReadCSV took %v on %d bytes, over the %v bound", wall, len(data), maxDecodeWall)
		}
		if err != nil {
			return
		}
		rows := 0
		for _, line := range strings.Split(string(data), "\n")[1:] {
			if strings.TrimSpace(line) != "" {
				rows++
			}
		}
		if d.NumSamples() != rows {
			t.Fatalf("%d samples from %d data rows", d.NumSamples(), rows)
		}
		var first bytes.Buffer
		if err := d.WriteCSV(&first); err != nil {
			return
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV refuses WriteCSV's output: %v", err)
		}
		var second bytes.Buffer
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteCSV(ReadCSV(x)) is not a fixed point")
		}
	})
}
