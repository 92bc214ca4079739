package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset("fe", 2, 3, 4, 5)
	v := 0.001
	d.EachProcessIteration(func(_, _, _ int, xs []float64) {
		for i := range xs {
			xs[i] = v
			v += 0.0005
		}
	})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != "fe" || back.Trials != 2 || back.Ranks != 3 || back.Iterations != 4 || back.Threads != 5 {
		t.Fatalf("geometry %+v", back)
	}
	a, b := d.AllSamples(), back.AllSamples()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x,y\n",
		"short row":    "app,trial,rank,iteration,thread,compute_seconds\nfe,0,0\n",
		"bad number":   "app,trial,rank,iteration,thread,compute_seconds\nfe,0,0,0,0,abc\n",
		"bad index":    "app,trial,rank,iteration,thread,compute_seconds\nfe,x,0,0,0,1\n",
		"negative":     "app,trial,rank,iteration,thread,compute_seconds\nfe,-1,0,0,0,1\n",
		"mixed apps":   "app,trial,rank,iteration,thread,compute_seconds\nfe,0,0,0,0,1\nmd,0,0,0,1,1\n",
		"duplicate":    "app,trial,rank,iteration,thread,compute_seconds\nfe,0,0,0,0,1\nfe,0,0,0,0,2\n",
		"missing cell": "app,trial,rank,iteration,thread,compute_seconds\nfe,0,0,0,1,1\n",
		"no rows":      "app,trial,rank,iteration,thread,compute_seconds\n",
	}
	for name, csv := range cases {
		if _, err := ReadCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestReadCSVEmptyAppNotASentinel is the regression test for the
// empty-app sentinel bug: ReadCSV used app == "" as its "no row seen
// yet" marker, so a CSV whose first data row had an empty app field
// silently accepted a different app on later rows instead of erroring.
func TestReadCSVEmptyAppNotASentinel(t *testing.T) {
	mixed := "app,trial,rank,iteration,thread,compute_seconds\n" +
		",0,0,0,0,1\n" + // empty app on the first row
		"md,0,0,0,1,1\n" // a different app on the second
	if _, err := ReadCSV(strings.NewReader(mixed)); err == nil {
		t.Fatal("mixed apps after an empty first-row app were accepted")
	} else if !strings.Contains(err.Error(), "mixed apps") {
		t.Fatalf("wrong error: %v", err)
	}

	// A consistently empty app is a valid (if odd) dataset, not an error.
	uniform := "app,trial,rank,iteration,thread,compute_seconds\n" +
		",0,0,0,0,1\n" +
		",0,0,0,1,2\n"
	d, err := ReadCSV(strings.NewReader(uniform))
	if err != nil {
		t.Fatal(err)
	}
	if d.App != "" || d.Threads != 2 {
		t.Fatalf("got app %q geometry %+v", d.App, d)
	}
}

// TestWriteCSVRejectsUnescapableApp is the regression test for the
// unescaped-app bug: WriteCSV emitted d.App verbatim, so an app name
// containing a comma or newline produced a corrupt file that ReadCSV
// rejected with a misleading "n fields" error. Such names now fail at
// write time with an error that names the app.
func TestWriteCSVRejectsUnescapableApp(t *testing.T) {
	for _, app := range []string{"fe,md", "fe\nmd", "fe\rmd", `fe"md`} {
		d := NewDataset(app, 1, 1, 1, 2)
		var buf bytes.Buffer
		err := d.WriteCSV(&buf)
		if err == nil {
			t.Errorf("app %q: corrupt CSV written without error", app)
			continue
		}
		if !strings.Contains(err.Error(), "metacharacters") {
			t.Errorf("app %q: wrong error: %v", app, err)
		}
		if buf.Len() != 0 {
			t.Errorf("app %q: partial output written before the rejection", app)
		}
	}

	// Round trip of an app name that is unusual but CSV-safe still works.
	d := NewDataset("fe md+noise:burst", 1, 1, 1, 2)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != d.App {
		t.Fatalf("app %q round-tripped as %q", d.App, back.App)
	}
}

// TestReadCSVEdgeCases is the table the scenario compiler's trace-replay
// import leans on: sparse indices, duplicate cells, a huge single line
// and geometry inference from out-of-order rows.
func TestReadCSVEdgeCases(t *testing.T) {
	const header = "app,trial,rank,iteration,thread,compute_seconds\n"
	t.Run("sparse indices leave holes", func(t *testing.T) {
		// Max thread index 2 implies 3 threads per cell; only one row
		// present — every other cell is a hole.
		csv := header + "fe,0,0,0,2,1\n"
		_, err := ReadCSV(strings.NewReader(csv))
		if err == nil || !strings.Contains(err.Error(), "missing cell") {
			t.Fatalf("sparse CSV accepted: %v", err)
		}
	})
	t.Run("duplicate cell named in error", func(t *testing.T) {
		csv := header + "fe,0,0,0,0,1\nfe,0,0,0,1,1\nfe,0,0,0,1,2\n"
		_, err := ReadCSV(strings.NewReader(csv))
		if err == nil || !strings.Contains(err.Error(), "duplicate cell (0,0,0,1)") {
			t.Fatalf("duplicate not reported: %v", err)
		}
	})
	t.Run("out-of-order rows reconstruct", func(t *testing.T) {
		csv := header +
			"fe,1,0,0,0,4\n" +
			"fe,0,0,0,1,2\n" +
			"fe,1,0,0,1,5\n" +
			"fe,0,0,0,0,1\n"
		d, err := ReadCSV(strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		if d.Trials != 2 || d.Threads != 2 || d.Times[1][0][0][1] != 5 || d.Times[0][0][0][0] != 1 {
			t.Fatalf("reconstruction wrong: %+v", d.Times)
		}
	})
	t.Run("huge line within buffer parses", func(t *testing.T) {
		// One value with ~500 KB of significant-looking digits still fits
		// the scanner's 1 MiB line buffer.
		long := "0." + strings.Repeat("1", 500_000)
		csv := header + "fe,0,0,0,0," + long + "\n"
		if _, err := ReadCSV(strings.NewReader(csv)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("line over buffer errors", func(t *testing.T) {
		long := "0." + strings.Repeat("1", 2_000_000)
		csv := header + "fe,0,0,0,0," + long + "\n"
		if _, err := ReadCSV(strings.NewReader(csv)); err == nil {
			t.Fatal("2 MB line slid through a 1 MiB scanner buffer")
		}
	})
}

func TestReadCSVSkipsBlankLines(t *testing.T) {
	csv := "app,trial,rank,iteration,thread,compute_seconds\nfe,0,0,0,0,0.5\n\n"
	d, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if d.Times[0][0][0][0] != 0.5 {
		t.Fatal("value lost")
	}
}

// TestCSVRoundTripNonTrivialGeometry exercises the streaming CSV writer at
// a geometry large enough to cross several bufio flushes, with
// full-precision float64 values: the shortest-representation encoding must
// reproduce every sample bit-for-bit, so the content fingerprints agree.
func TestCSVRoundTripNonTrivialGeometry(t *testing.T) {
	const trials, ranks, iters, threads = 3, 5, 17, 7
	d := NewDataset("qmc", trials, ranks, iters, threads)
	x := uint64(0x9e3779b97f4a7c15)
	d.EachProcessIteration(func(_, _, _ int, xs []float64) {
		for i := range xs {
			// splitmix-style values spanning many magnitudes.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x%1_000_000_007) * 1.1e-12
		}
	})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	wantLines := trials*ranks*iters*threads + 1
	if got := strings.Count(buf.String(), "\n"); got != wantLines {
		t.Fatalf("CSV has %d lines, want %d", got, wantLines)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != d.Fingerprint() {
		t.Fatal("CSV round trip changed the dataset fingerprint")
	}
}

// TestReadCSVRejectsNonFinite: strconv.ParseFloat accepts NaN and the
// infinities in every spelling, so the reader must refuse them itself —
// naming the offending line — before they reach the analysis' NaN-free
// sorts.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-infinity", "-1e-3"} {
		csv := "app,trial,rank,iteration,thread,compute_seconds\n" +
			"x,0,0,0,0,1e-3\n" +
			"x,0,0,0,1," + v + "\n"
		_, err := ReadCSV(strings.NewReader(csv))
		if err == nil {
			t.Errorf("%s: accepted", v)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%s: error %q does not name line 3 as not finite", v, err)
		}
	}
}

// hostileIndexCSV is one data row whose thread index implies a geometry
// of ten million cells: before ReadCSV checked the row count against the
// geometry, this 67-byte input allocated ~87 MiB before it was refused.
const hostileIndexCSV = "app,trial,rank,iteration,thread,compute_seconds\nx,0,0,0,10000000,1\n"

// TestReadCSVRejectsHugeIndexWithoutAllocating pins that an index far
// beyond the row count is refused before anything sized by it is
// allocated, and that indices whose cell product overflows int are
// refused too.
func TestReadCSVRejectsHugeIndexWithoutAllocating(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCSV(strings.NewReader(hostileIndexCSV))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "missing cell") {
		t.Fatalf("hostile index accepted or misreported: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing a %d-byte CSV allocated %d bytes", len(hostileIndexCSV), got)
	}

	const header = "app,trial,rank,iteration,thread,compute_seconds\n"
	overflow := header + "x,9223372036854775807,0,0,0,1\n" +
		"x,0,4294967296,4294967296,4294967296,1\n"
	if _, err := ReadCSV(strings.NewReader(overflow)); err == nil || !strings.Contains(err.Error(), "missing cell") {
		t.Fatalf("overflowing geometry accepted or misreported: %v", err)
	}
}
