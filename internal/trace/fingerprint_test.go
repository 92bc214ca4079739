package trace

import (
	"sync"
	"testing"
)

func TestFingerprintDiscriminates(t *testing.T) {
	a := NewDataset("app", 1, 2, 3, 4)
	b := NewDataset("app", 1, 2, 3, 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical datasets have different fingerprints")
	}

	b.Times[0][1][2][3] = 1e-6
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("sample change not reflected in fingerprint")
	}

	c := NewDataset("other", 1, 2, 3, 4)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("app name not reflected in fingerprint")
	}

	// Same total size, different shape.
	d := NewDataset("app", 1, 2, 4, 3)
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("geometry not reflected in fingerprint")
	}
}

func TestFingerprintStableAcrossCalls(t *testing.T) {
	d := NewDataset("app", 2, 2, 2, 2)
	for i := range d.Times {
		for j := range d.Times[i] {
			for k := range d.Times[i][j] {
				for l := range d.Times[i][j][k] {
					d.Times[i][j][k][l] = float64(i*1000+j*100+k*10+l) * 1e-6
				}
			}
		}
	}
	if d.Fingerprint() != d.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
}

// TestFingerprintConcurrentCallsAgree: eight goroutines fingerprint one
// shared sink-sealed store and all see the same value, the value one
// caller sees alone. Fingerprint caches nothing today; under -race
// (make race) this guards any cache a later change adds to it.
func TestFingerprintConcurrentCallsAgree(t *testing.T) {
	sink := NewSinkInto(nil, "app", 2, 3, 4, 5)
	for tr := 0; tr < 2; tr++ {
		for r := 0; r < 3; r++ {
			w := sink.Stripe(tr, r)
			for i := 0; i < 4; i++ {
				w.AppendWith(func(out []float64) {
					for th := range out {
						out[th] = float64(((tr*3+r)*4+i)*5+th) * 1e-6
					}
				})
			}
		}
	}
	col, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}
	want := col.Fingerprint()
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = col.Fingerprint()
		}()
	}
	wg.Wait()
	for g, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: fingerprint %#016x, want %#016x", g, fp, want)
		}
	}
}
