package dlb

import (
	"testing"
	"time"
)

// maxDecodeWall is the per-input wall bound of FuzzDLBParse. Parse is
// linear in its input, so a second means a hang.
const maxDecodeWall = time.Second

// FuzzDLBParse feeds arbitrary text to Parse, which decodes the policy
// inside every shard record and durable-store identity. It must not
// panic or take longer than maxDecodeWall, and every accepted spec must
// be a fixed point of String: Parse(s.String()) == s as parsed, and
// after Resolve the canonical text parses and resolves back to the same
// spec.
func FuzzDLBParse(f *testing.F) {
	for _, seed := range []string{
		"static", "lewi", "drom", " lewi : factor=1.5 , lend=0.3 ", "lewi:factor=1.25,lend=0.5",
		"drom:reaction=2", "drom:reaction=+4", "lewi:factor=-0", "lewi:lend=0x1p-1",
		"lewi:factor=NaN", "lewi:lend=NaN", "lewi:factor=+Inf", "static:factor=1", "lewi:", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		start := time.Now()
		s, err := Parse(text)
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("Parse took %v on %d bytes, over the %v bound", wall, len(text), maxDecodeWall)
		}
		if err != nil {
			return
		}
		if back, err := Parse(s.String()); err != nil || back != s {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses back as %+v (%v)", text, s, s.String(), back, err)
		}
		// The record identity carries the resolved spec's text and
		// refuses one that does not render back to itself.
		resolved, err := s.Resolve()
		if err != nil {
			t.Fatalf("Parse accepted %q as %+v, which Resolve refuses: %v", text, s, err)
		}
		canonical := resolved.String()
		back, err := Parse(canonical)
		if err != nil || back.String() != canonical {
			t.Fatalf("resolved %+v renders %q, which parses back as %+v (%v)", resolved, canonical, back, err)
		}
		if again, err := back.Resolve(); err != nil || again != resolved {
			t.Fatalf("resolved %+v renders %q, which resolves back to %+v (%v)", resolved, canonical, again, err)
		}
	})
}
