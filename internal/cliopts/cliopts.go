// Package cliopts is the shared flag vocabulary of the earlybird
// commands. cmd/threadtime, cmd/analyze, cmd/earlybird, cmd/repro and
// cmd/earlybirdd register their -app, -geometry, -strategies and -dlb
// flags through these helpers, so each flag has one syntax, one usage
// string and one set of error messages everywhere, and bad values fail
// at flag-parse time instead of deep inside the command body. -geometry
// is the only way a command sizes a study and -app the only way it
// names one.
package cliopts

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// AppValue holds a validated -app selection; the empty Name means the
// flag was not set.
type AppValue struct {
	Name string
}

// String renders the current selection (flag.Value).
func (v *AppValue) String() string { return v.Name }

// Set validates the name against the workload registry at flag-parse
// time (flag.Value), so an unknown app fails before any work starts.
func (v *AppValue) Set(s string) error {
	if _, err := workload.ByName(s); err != nil {
		return err
	}
	v.Name = s
	return nil
}

// App registers the shared -app flag on fs with the command's default
// application, def ("" for none).
func App(fs *flag.FlagSet, def string) *AppValue {
	v := &AppValue{Name: def}
	fs.Var(v, "app", "built-in application (minife|minimd|miniqmc)")
	return v
}

// GeometryValue holds a -geometry selection. Config starts at the
// command's default; IsSet distinguishes an explicit choice from it.
type GeometryValue struct {
	Config cluster.Config
	IsSet  bool
}

// String renders the current selection in ParseGeometry's syntax
// (flag.Value), so -h shows the command's default; a zero Config
// renders empty.
func (v *GeometryValue) String() string {
	if v.Config == (cluster.Config{}) {
		return ""
	}
	return FormatGeometry(v.Config)
}

// Set parses and validates the geometry at flag-parse time (flag.Value).
func (v *GeometryValue) Set(s string) error {
	cfg, err := ParseGeometry(s)
	if err != nil {
		return err
	}
	v.Config = cfg
	v.IsSet = true
	return nil
}

// Geometry registers the shared -geometry flag on fs with the command's
// default geometry, def (zero for none).
func Geometry(fs *flag.FlagSet, def cluster.Config) *GeometryValue {
	v := &GeometryValue{Config: def}
	fs.Var(v, "geometry", "study geometry: paper | quick | huge | TRIALSxRANKSxITERSxTHREADS, with an optional @SEED suffix (e.g. 3x4x60x48, paper@7)")
	return v
}

// ParseGeometry reads the -geometry syntax: a named shape ("paper",
// "quick", "huge") or an explicit TRIALSxRANKSxITERSxTHREADS product
// like 3x4x60x48, optionally followed by @SEED ("paper@7",
// "3x4x60x48@2"). Without the suffix the seed is 1, the named shapes'
// default.
func ParseGeometry(text string) (cluster.Config, error) {
	text = strings.TrimSpace(text)
	seed := uint64(1)
	if base, suffix, ok := strings.Cut(text, "@"); ok {
		n, err := strconv.ParseUint(strings.TrimSpace(suffix), 10, 64)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("cliopts: geometry %q: bad seed %q", text, suffix)
		}
		seed = n
		text = strings.TrimSpace(base)
	}
	cfg, named := cluster.Named(text)
	if !named {
		parts := strings.Split(text, "x")
		if len(parts) != 4 {
			return cluster.Config{}, fmt.Errorf("cliopts: geometry %q: want paper, quick, huge or TRIALSxRANKSxITERSxTHREADS, optionally @SEED", text)
		}
		dims := make([]int, 4)
		for i, p := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return cluster.Config{}, fmt.Errorf("cliopts: geometry %q: bad dimension %q", text, p)
			}
			dims[i] = n
		}
		cfg = cluster.Config{Trials: dims[0], Ranks: dims[1], Iterations: dims[2], Threads: dims[3]}
	}
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, err
	}
	return cfg, nil
}

// FormatGeometry renders cfg in ParseGeometry's syntax, preferring the
// named shapes where the dimensions apply and appending @SEED for
// non-default seeds — so a paper-shaped config with Seed 7 renders as
// "paper@7" and the seed survives the ParseGeometry round trip instead
// of being silently reset to 1.
func FormatGeometry(cfg cluster.Config) string {
	base := cluster.NameOf(cfg)
	if base == "" {
		base = fmt.Sprintf("%dx%dx%dx%d", cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
	}
	if cfg.Seed != 1 {
		return fmt.Sprintf("%s@%d", base, cfg.Seed)
	}
	return base
}

// DLBValue holds a -dlb selection, parsed and validated by dlb.Parse at
// flag-parse time. The zero value is the static policy; IsSet
// distinguishes an explicit "static" from an absent flag (they resolve
// identically, but commands refuse explicit -dlb where it cannot apply,
// e.g. over a pre-collected dataset).
type DLBValue struct {
	Spec  dlb.Spec
	IsSet bool
}

// String renders the current policy in dlb.Parse's syntax (flag.Value).
func (v *DLBValue) String() string { return v.Spec.String() }

// Set parses and validates the policy at flag-parse time (flag.Value).
func (v *DLBValue) Set(s string) error {
	spec, err := dlb.Parse(s)
	if err != nil {
		return err
	}
	v.Spec = spec
	v.IsSet = true
	return nil
}

// DLB registers the shared -dlb flag on fs.
func DLB(fs *flag.FlagSet) *DLBValue {
	v := &DLBValue{}
	fs.Var(v, "dlb", "runtime rebalancing policy: static | lewi[:factor=F,lend=L] | drom[:reaction=N]")
	return v
}

// Strategies registers the shared -strategies switch on fs.
func Strategies(fs *flag.FlagSet) *bool {
	return fs.Bool("strategies", false, "sweep the full delivery-strategy grid (optimizer frontier) instead of the three-strategy assessment")
}
