package cliopts

import (
	"flag"
	"io"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
)

// newFlagSet returns a quiet FlagSet so expected parse errors don't spam
// test output.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestAppFlag(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
		err  bool
	}{
		{"unset", nil, "", false},
		{"minife", []string{"-app", "minife"}, "minife", false},
		{"minimd", []string{"-app", "minimd"}, "minimd", false},
		{"miniqmc", []string{"-app", "miniqmc"}, "miniqmc", false},
		{"unknown app", []string{"-app", "lulesh"}, "", true},
		{"empty app", []string{"-app", ""}, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFlagSet()
			app := App(fs, "")
			err := fs.Parse(tc.args)
			if tc.err {
				if err == nil {
					t.Fatalf("Parse(%v): expected error", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if app.Name != tc.want {
				t.Errorf("app = %q, want %q", app.Name, tc.want)
			}
		})
	}
}

func TestGeometryFlag(t *testing.T) {
	cases := []struct {
		name string
		text string
		want cluster.Config
		err  bool
	}{
		{"paper", "paper", cluster.DefaultConfig(), false},
		{"quick", "quick", cluster.SmallConfig(), false},
		{"huge", "huge", cluster.HugeConfig(), false},
		{"explicit", "3x4x60x48", cluster.Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}, false},
		{"explicit small", "1x2x8x16", cluster.Config{Trials: 1, Ranks: 2, Iterations: 8, Threads: 16, Seed: 1}, false},
		{"whitespace", " quick ", cluster.SmallConfig(), false},
		{"seeded paper", "paper@7", seeded(cluster.DefaultConfig(), 7), false},
		{"seeded quick", "quick@2", seeded(cluster.SmallConfig(), 2), false},
		{"seeded explicit", "3x4x60x48@9", cluster.Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 9}, false},
		{"explicit default seed suffix", "3x4x60x48@1", cluster.Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}, false},
		{"seeded whitespace", " paper @ 7 ", seeded(cluster.DefaultConfig(), 7), false},
		{"bad seed", "paper@x", cluster.Config{}, true},
		{"negative seed", "paper@-1", cluster.Config{}, true},
		{"empty seed", "paper@", cluster.Config{}, true},
		{"double seed", "paper@1@2", cluster.Config{}, true},
		{"too few dims", "3x4x60", cluster.Config{}, true},
		{"too many dims", "3x4x60x48x2", cluster.Config{}, true},
		{"non-numeric", "ax4x60x48", cluster.Config{}, true},
		{"zero dim", "0x4x60x48", cluster.Config{}, true},
		{"negative dim", "3x-4x60x48", cluster.Config{}, true},
		{"unknown name", "gigantic", cluster.Config{}, true},
		{"empty", "", cluster.Config{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFlagSet()
			geom := Geometry(fs, cluster.Config{})
			err := fs.Parse([]string{"-geometry", tc.text})
			if tc.err {
				if err == nil {
					t.Fatalf("Parse(-geometry %q): expected error", tc.text)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !geom.IsSet {
				t.Error("IsSet = false after an explicit -geometry")
			}
			if geom.Config != tc.want {
				t.Errorf("geometry = %+v, want %+v", geom.Config, tc.want)
			}
			// The String/Parse round trip holds for every accepted value.
			back, err := ParseGeometry(geom.String())
			if err != nil {
				t.Fatalf("round trip of %q: %v", geom.String(), err)
			}
			if back != geom.Config {
				t.Errorf("round trip of %q = %+v, want %+v", geom.String(), back, geom.Config)
			}
		})
	}
	// Unset: zero config, IsSet false, empty String.
	fs := newFlagSet()
	geom := Geometry(fs, cluster.Config{})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if geom.IsSet || geom.Config != (cluster.Config{}) || geom.String() != "" {
		t.Errorf("unset -geometry = %+v (set=%v, %q), want zero", geom.Config, geom.IsSet, geom.String())
	}
}

// seeded returns cfg with its seed replaced.
func seeded(cfg cluster.Config, seed uint64) cluster.Config {
	cfg.Seed = seed
	return cfg
}

func TestFormatGeometry(t *testing.T) {
	cases := map[string]cluster.Config{
		"paper":       cluster.DefaultConfig(),
		"quick":       cluster.SmallConfig(),
		"huge":        cluster.HugeConfig(),
		"2x4x10x48":   {Trials: 2, Ranks: 4, Iterations: 10, Threads: 48, Seed: 1},
		"paper@7":     seeded(cluster.DefaultConfig(), 7),
		"huge@3":      seeded(cluster.HugeConfig(), 3),
		"2x4x10x48@9": {Trials: 2, Ranks: 4, Iterations: 10, Threads: 48, Seed: 9},
	}
	for want, cfg := range cases {
		if got := FormatGeometry(cfg); got != want {
			t.Errorf("FormatGeometry(%+v) = %q, want %q", cfg, got, want)
		}
	}
}

// TestFormatGeometrySeedRoundTrip is the regression test for the
// seed-dropping bug: FormatGeometry matched the named shapes by full
// struct equality, so a paper-shaped config with a non-default seed fell
// through to the bare TxRxIxT form and ParseGeometry forced the seed
// back to 1. Every config — named shape or explicit, any seed — must now
// survive String() -> Set() unchanged.
func TestFormatGeometrySeedRoundTrip(t *testing.T) {
	cfgs := []cluster.Config{
		cluster.DefaultConfig(),
		seeded(cluster.DefaultConfig(), 7),
		seeded(cluster.SmallConfig(), 42),
		seeded(cluster.HugeConfig(), 2),
		{Trials: 2, Ranks: 4, Iterations: 10, Threads: 48, Seed: 1},
		{Trials: 2, Ranks: 4, Iterations: 10, Threads: 48, Seed: 12345},
	}
	for _, cfg := range cfgs {
		v := &GeometryValue{Config: cfg, IsSet: true}
		var back GeometryValue
		if err := back.Set(v.String()); err != nil {
			t.Fatalf("round trip of %+v via %q: %v", cfg, v.String(), err)
		}
		if back.Config != cfg {
			t.Errorf("round trip of %q = %+v, want %+v (seed dropped?)", v.String(), back.Config, cfg)
		}
	}
}

func TestDLBFlag(t *testing.T) {
	cases := []struct {
		name string
		text string
		want dlb.Spec
		err  bool
	}{
		{"static", "static", dlb.Spec{Policy: dlb.PolicyStatic}, false},
		{"lewi", "lewi", dlb.Spec{Policy: dlb.PolicyLeWI}, false},
		{"lewi params", "lewi:factor=1.5,lend=0.25",
			dlb.Spec{Policy: dlb.PolicyLeWI, LaggardFactor: 1.5, MaxLendFraction: 0.25}, false},
		{"drom", "drom", dlb.Spec{Policy: dlb.PolicyDROM}, false},
		{"drom reaction", "drom:reaction=2", dlb.Spec{Policy: dlb.PolicyDROM, ReactionIters: 2}, false},
		{"unknown policy", "nope", dlb.Spec{}, true},
		{"cross parameter", "lewi:reaction=3", dlb.Spec{}, true},
		{"drom with factor", "drom:factor=2", dlb.Spec{}, true},
		{"malformed parameter", "lewi:factor", dlb.Spec{}, true},
		{"bad number", "lewi:factor=abc", dlb.Spec{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFlagSet()
			v := DLB(fs)
			err := fs.Parse([]string{"-dlb", tc.text})
			if tc.err {
				if err == nil {
					t.Fatalf("Parse(-dlb %q): expected error", tc.text)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !v.IsSet {
				t.Error("IsSet = false after an explicit -dlb")
			}
			if v.Spec != tc.want {
				t.Errorf("dlb = %+v, want %+v", v.Spec, tc.want)
			}
		})
	}
	// Unset: static, IsSet false — but String still renders "static" so
	// the flag's default reads correctly in -help output.
	fs := newFlagSet()
	v := DLB(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if v.IsSet || !v.Spec.IsStatic() || v.String() != "static" {
		t.Errorf("unset -dlb = %+v (set=%v, %q), want static", v.Spec, v.IsSet, v.String())
	}
}

// TestStrategiesFlag pins the shared -strategies switch registration.
func TestStrategiesFlag(t *testing.T) {
	fs := newFlagSet()
	s := Strategies(fs)
	if err := fs.Parse([]string{"-strategies"}); err != nil {
		t.Fatal(err)
	}
	if !*s {
		t.Error("-strategies did not set the switch")
	}
}

// TestSharedRegistration proves one FlagSet can carry the whole shared
// vocabulary at once — the shape every command uses.
func TestSharedRegistration(t *testing.T) {
	fs := newFlagSet()
	app, geom, policy, strategies := App(fs, ""), Geometry(fs, cluster.Config{}), DLB(fs), Strategies(fs)
	err := fs.Parse([]string{
		"-app", "minimd", "-geometry", "2x4x10x48", "-dlb", "drom:reaction=2", "-strategies"})
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "minimd" {
		t.Errorf("app = %q", app.Name)
	}
	if want := (cluster.Config{Trials: 2, Ranks: 4, Iterations: 10, Threads: 48, Seed: 1}); geom.Config != want {
		t.Errorf("geometry = %+v", geom.Config)
	}
	if want := (dlb.Spec{Policy: dlb.PolicyDROM, ReactionIters: 2}); policy.Spec != want {
		t.Errorf("dlb = %+v", policy.Spec)
	}
	if !*strategies {
		t.Error("strategies unset")
	}
}
