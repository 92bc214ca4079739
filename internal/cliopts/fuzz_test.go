package cliopts

import (
	"testing"
	"time"
)

// maxDecodeWall is the per-input wall bound of FuzzParseGeometry.
// ParseGeometry splits a short flag value and parses at most five
// integers, so a second means a hang.
const maxDecodeWall = time.Second

// FuzzParseGeometry feeds arbitrary text to ParseGeometry. It must not
// panic or take longer than maxDecodeWall, and every accepted geometry
// must survive FormatGeometry: parsing its rendering yields the same
// config, seed included.
func FuzzParseGeometry(f *testing.F) {
	for _, seed := range []string{
		"paper", "quick@7", "huge", "3x4x60x48@2", " 1x1x1x1 ", "0x1x1x1", "2x2x2",
		"1x1x1x1@18446744073709551615",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		start := time.Now()
		cfg, err := ParseGeometry(text)
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("ParseGeometry took %v on %d bytes, over the %v bound", wall, len(text), maxDecodeWall)
		}
		if err != nil {
			return
		}
		formatted := FormatGeometry(cfg)
		back, err := ParseGeometry(formatted)
		if err != nil {
			t.Fatalf("ParseGeometry refuses FormatGeometry's %q for %q: %v", formatted, text, err)
		}
		if back != cfg {
			t.Fatalf("%q parses to %+v, its rendering %q to %+v", text, cfg, formatted, back)
		}
	})
}
