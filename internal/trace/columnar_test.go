package trace

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

// fillPattern writes a recognisable, coordinate-derived value into every
// cell of a dataset.
func fillPattern(d *Dataset) {
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		for th := range xs {
			xs[th] = patternValue(trial, rank, iter, th)
		}
	})
}

func patternValue(trial, rank, iter, th int) float64 {
	return float64(trial)*1e-2 + float64(rank)*1e-4 + float64(iter)*1e-6 + float64(th)*1e-8
}

func TestSinkParallelFillMatchesDataset(t *testing.T) {
	const trials, ranks, iters, threads = 3, 4, 6, 5
	want := NewDataset("app", trials, ranks, iters, threads)
	fillPattern(want)

	sink := NewSink("app", trials, ranks, iters, threads)
	var wg sync.WaitGroup
	for tr := 0; tr < trials; tr++ {
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(tr, r int) {
				defer wg.Done()
				w := sink.Stripe(tr, r)
				for i := 0; i < iters; i++ {
					w.AppendWith(func(out []float64) {
						for th := range out {
							out[th] = patternValue(tr, r, i, th)
						}
					})
				}
			}(tr, r)
		}
	}
	wg.Wait()
	col, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}

	got := col.Dataset()
	for tr := 0; tr < trials; tr++ {
		for r := 0; r < ranks; r++ {
			for i := 0; i < iters; i++ {
				for th := 0; th < threads; th++ {
					if got.Times[tr][r][i][th] != want.Times[tr][r][i][th] {
						t.Fatalf("cell (%d,%d,%d,%d) = %v, want %v",
							tr, r, i, th, got.Times[tr][r][i][th], want.Times[tr][r][i][th])
					}
				}
			}
		}
	}

	// The sealed store's fingerprint must equal that of the same samples
	// written into a dataset without a sink.
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("sealed fingerprint differs from recomputed fingerprint")
	}
	if col.Fingerprint() != want.Fingerprint() {
		t.Fatal("columnar fingerprint differs from dataset fingerprint")
	}
}

func TestSinkSealRejectsIncompleteStripe(t *testing.T) {
	sink := NewSink("app", 1, 2, 3, 2)
	w := sink.Stripe(0, 0)
	for i := 0; i < 3; i++ {
		w.Append([]float64{1, 2})
	}
	// Stripe (0,1) never filled.
	if _, err := sink.Seal(); err == nil {
		t.Fatal("expected incomplete-stripe error")
	}
}

func TestStripeWriterPanicsPastEnd(t *testing.T) {
	sink := NewSink("app", 1, 1, 1, 2)
	w := sink.Stripe(0, 0)
	w.Append([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-append")
		}
	}()
	w.Append([]float64{3, 4})
}

func TestCursorVisitsEveryBlockInOrder(t *testing.T) {
	d := NewDataset("app", 2, 3, 4, 2)
	fillPattern(d)
	var wantOrder [][3]int
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		wantOrder = append(wantOrder, [3]int{trial, rank, iter})
	})
	cur := d.Cursor()
	n := 0
	for cur.Next() {
		b := cur.Block()
		if n >= len(wantOrder) {
			t.Fatal("cursor yields more blocks than EachProcessIteration")
		}
		if got := [3]int{b.Trial, b.Rank, b.Iter}; got != wantOrder[n] {
			t.Fatalf("block %d = %v, want %v", n, got, wantOrder[n])
		}
		if b.Times[1] != patternValue(b.Trial, b.Rank, b.Iter, 1) {
			t.Fatalf("block %d has wrong samples", n)
		}
		n++
	}
	if n != len(wantOrder) {
		t.Fatalf("cursor yielded %d blocks, want %d", n, len(wantOrder))
	}
}

func TestCursorRange(t *testing.T) {
	d := NewDataset("app", 2, 2, 10, 2)
	cur := d.CursorRange(3, 7)
	count := 0
	for cur.Next() {
		b := cur.Block()
		if b.Iter < 3 || b.Iter >= 7 {
			t.Fatalf("iteration %d outside [3,7)", b.Iter)
		}
		count++
	}
	if count != 2*2*4 {
		t.Fatalf("cursor yielded %d blocks, want %d", count, 2*2*4)
	}

	// Empty and clamped ranges.
	if d.CursorRange(5, 5).Next() {
		t.Fatal("empty range yielded a block")
	}
	cur = d.CursorRange(-3, 99)
	count = 0
	for cur.Next() {
		count++
	}
	if count != d.NumProcessIterations() {
		t.Fatalf("clamped range yielded %d blocks, want %d", count, d.NumProcessIterations())
	}
}

func TestColumnarCoordRoundTrip(t *testing.T) {
	c := newColumnar(nil, "app", 2, 3, 4, 5)
	row := 0
	for tr := 0; tr < 2; tr++ {
		for r := 0; r < 3; r++ {
			for i := 0; i < 4; i++ {
				for th := 0; th < 5; th++ {
					gt, gr, gi, gth := c.Coord(row)
					if gt != tr || gr != r || gi != i || gth != th {
						t.Fatalf("Coord(%d) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
							row, gt, gr, gi, gth, tr, r, i, th)
					}
					row++
				}
			}
		}
	}
}

func TestDatasetColumnarAdoptsJSONDecoded(t *testing.T) {
	d := NewDataset("app", 2, 2, 3, 2)
	fillPattern(d)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.col != nil {
		t.Fatal("JSON-decoded dataset unexpectedly has a backing store")
	}
	c := back.Columnar()
	if c.NumSamples() != d.NumSamples() {
		t.Fatalf("adopted columnar has %d samples, want %d", c.NumSamples(), d.NumSamples())
	}
	if c.Fingerprint() != d.Fingerprint() {
		t.Fatal("adopted columnar fingerprint differs")
	}
	if back.Columnar() != c {
		t.Fatal("Columnar not cached after adoption")
	}
	// The zero-copy column matches the nested view.
	if got := c.Block(1, 1, 2); got[1] != back.Times[1][1][2][1] {
		t.Fatalf("block view %v does not match nested view %v", got[1], back.Times[1][1][2][1])
	}
}

func TestColumnarTimesColumnSharesStorage(t *testing.T) {
	d := NewDataset("app", 1, 1, 2, 3)
	d.Times[0][0][1][2] = 42e-3
	col := d.Columnar()
	flat := col.TimesColumn()
	if len(flat) != 6 {
		t.Fatalf("column length %d", len(flat))
	}
	if flat[5] != 42e-3 {
		t.Fatalf("flat[5] = %v, want 42e-3 (storage not shared)", flat[5])
	}
	if math.IsNaN(flat[0]) {
		t.Fatal("unexpected NaN")
	}
}
