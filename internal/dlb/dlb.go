// Package dlb models dynamic load balancing of thread ownership inside
// the simulated runtime, after the DLB library's two mechanisms: LeWI
// ("lend when idle" — ranks that finish an iteration early lend threads
// to the laggards for the next one) and DROM (dynamic resource ownership
// management — a global reassignment of cores that reacts to measured
// load with a configurable latency).
//
// The cluster fill loop stays work-conserving under rebalancing: a rank
// granted alloc threads instead of its base complement finishes its
// (fixed-size) sample block scaled by base/alloc. Rebalancing decisions
// happen at iteration boundaries from the previous iteration's per-rank
// finish times, and are strictly per-trial: trial t's balancer never
// sees trial u, which is what keeps federated trial sharding exact.
//
// A Spec is the wire/cache-key form of a policy: a comparable value
// struct that joins engine.Key and engine.SpecKey so differently
// balanced runs never share a dataset or result cache entry. The zero
// Spec is the static policy — today's fixed thread layout, bit-identical
// to the pre-DLB fill path.
package dlb

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"earlybird/internal/fnv"
)

// Policy names accepted in Spec.Policy, -dlb flags and wire JSON.
const (
	PolicyStatic = "static"
	PolicyLeWI   = "lewi"
	PolicyDROM   = "drom"
)

// Defaults filled in by Resolve for the policies that use them.
const (
	// DefaultLaggardFactor marks a rank as a laggard when its iteration
	// finish time exceeds this multiple of the median finish.
	DefaultLaggardFactor = 1.25
	// DefaultMaxLendFraction bounds how much of its base thread
	// complement an idle rank may lend in one iteration.
	DefaultMaxLendFraction = 0.5
	// DefaultReactionIters is DROM's reaction latency: a reassignment
	// computed from iteration i's measurements takes effect at i+latency.
	DefaultReactionIters = 4
)

// Spec selects and parameterises a rebalancing policy. It is a
// comparable value struct so it can sit inside cache keys; the zero
// value means static (no rebalancing), which keeps pre-DLB cache keys
// and wire payloads meaning exactly what they used to.
type Spec struct {
	// Policy is "static", "lewi" or "drom"; empty means static.
	Policy string `json:"policy,omitempty"`
	// LaggardFactor is LeWI's laggard rule: a rank lags when its finish
	// exceeds LaggardFactor x the median. 0 means DefaultLaggardFactor.
	LaggardFactor float64 `json:"laggard_factor,omitempty"`
	// MaxLendFraction bounds LeWI lending per iteration as a fraction of
	// a rank's base threads. 0 means DefaultMaxLendFraction.
	MaxLendFraction float64 `json:"max_lend_fraction,omitempty"`
	// ReactionIters is DROM's reaction latency in iterations. 0 means
	// DefaultReactionIters.
	ReactionIters int `json:"reaction_iters,omitempty"`
}

// IsStatic reports whether the spec selects the static (no rebalancing)
// policy.
func (s Spec) IsStatic() bool { return s.Policy == "" || s.Policy == PolicyStatic }

// Validate checks the policy name, parameter ranges, and that no
// parameter is set on a policy that does not consume it (which would
// otherwise create distinct cache keys for identical behaviour).
func (s Spec) Validate() error {
	switch s.Policy {
	case "", PolicyStatic:
		if s.LaggardFactor != 0 || s.MaxLendFraction != 0 || s.ReactionIters != 0 {
			return fmt.Errorf("dlb: static policy takes no parameters")
		}
	case PolicyLeWI:
		// Negated comparisons refuse NaN too: it would never equal
		// itself in a cache key, and JSON cannot carry it (nor +Inf).
		if s.LaggardFactor != 0 && !(s.LaggardFactor >= 1 && s.LaggardFactor <= math.MaxFloat64) {
			return fmt.Errorf("dlb: laggard_factor %g not a finite value >= 1", s.LaggardFactor)
		}
		if s.MaxLendFraction != 0 && !(s.MaxLendFraction > 0 && s.MaxLendFraction <= 1) {
			return fmt.Errorf("dlb: max_lend_fraction %g outside (0, 1]", s.MaxLendFraction)
		}
		if s.ReactionIters != 0 {
			return fmt.Errorf("dlb: reaction_iters only applies to drom")
		}
	case PolicyDROM:
		if s.ReactionIters < 0 {
			return fmt.Errorf("dlb: reaction_iters %d < 0", s.ReactionIters)
		}
		if s.LaggardFactor != 0 || s.MaxLendFraction != 0 {
			return fmt.Errorf("dlb: laggard_factor/max_lend_fraction only apply to lewi")
		}
	default:
		return fmt.Errorf("dlb: unknown policy %q (want %s)", s.Policy, strings.Join(Policies(), ", "))
	}
	return nil
}

// Resolve validates the spec and returns its canonical form: static
// collapses to the zero Spec, and the other policies get their defaults
// filled in, so equal behaviour always hashes to equal cache keys.
func (s Spec) Resolve() (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	switch s.Policy {
	case "", PolicyStatic:
		return Spec{}, nil
	case PolicyLeWI:
		if s.LaggardFactor == 0 {
			s.LaggardFactor = DefaultLaggardFactor
		}
		if s.MaxLendFraction == 0 {
			s.MaxLendFraction = DefaultMaxLendFraction
		}
	case PolicyDROM:
		if s.ReactionIters == 0 {
			s.ReactionIters = DefaultReactionIters
		}
	}
	return s, nil
}

// Name returns the policy name ("static" for the zero spec).
func (s Spec) Name() string {
	if s.Policy == "" {
		return PolicyStatic
	}
	return s.Policy
}

// String renders the spec in the form Parse accepts:
// "static", "lewi:factor=1.25,lend=0.5", "drom:reaction=4".
// Unset parameters are omitted, so the zero-parameter round trip holds.
func (s Spec) String() string {
	var params []string
	if s.LaggardFactor != 0 {
		params = append(params, "factor="+strconv.FormatFloat(s.LaggardFactor, 'g', -1, 64))
	}
	if s.MaxLendFraction != 0 {
		params = append(params, "lend="+strconv.FormatFloat(s.MaxLendFraction, 'g', -1, 64))
	}
	if s.ReactionIters != 0 {
		params = append(params, "reaction="+strconv.Itoa(s.ReactionIters))
	}
	if len(params) == 0 {
		return s.Name()
	}
	return s.Name() + ":" + strings.Join(params, ",")
}

// Parse reads the flag/CLI form of a spec: a policy name optionally
// followed by ":key=value,key=value" parameters — "static",
// "lewi:factor=1.5,lend=0.3", "drom:reaction=2". The result is
// validated but not resolved, so "lewi" stays distinguishable from an
// explicit "lewi:factor=1.25,lend=0.5" until Resolve canonicalises both
// to the same spec.
func Parse(text string) (Spec, error) {
	name, rest, hasParams := strings.Cut(strings.TrimSpace(text), ":")
	s := Spec{Policy: name}
	if name == "" {
		return Spec{}, fmt.Errorf("dlb: empty policy (want %s)", strings.Join(Policies(), ", "))
	}
	if hasParams {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Spec{}, fmt.Errorf("dlb: malformed parameter %q (want key=value)", kv)
			}
			switch k {
			case "factor":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("dlb: bad factor %q: %v", v, err)
				}
				s.LaggardFactor = f
			case "lend":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("dlb: bad lend %q: %v", v, err)
				}
				s.MaxLendFraction = f
			case "reaction":
				n, err := strconv.Atoi(v)
				if err != nil {
					return Spec{}, fmt.Errorf("dlb: bad reaction %q: %v", v, err)
				}
				s.ReactionIters = n
			default:
				return Spec{}, fmt.Errorf("dlb: unknown parameter %q (want factor, lend, reaction)", k)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Policies lists the known policy names, static first.
func Policies() []string { return []string{PolicyStatic, PolicyLeWI, PolicyDROM} }

// Hash folds the spec into an FNV-1a chain. The zero spec folds the
// empty canonical form, so hashes of pre-DLB keys are stable only
// within this scheme — all participants (coordinator and fleet workers)
// run the same fold, which is what rendezvous routing requires.
func (s Spec) Hash(h uint64) uint64 {
	h = fnv.Str(h, s.Policy)
	h = fnv.F64(h, s.LaggardFactor)
	h = fnv.F64(h, s.MaxLendFraction)
	h = fnv.U64(h, uint64(uint(s.ReactionIters)))
	return h
}
