package rng

import "math"

// Normal draws from N(mu, sigma). sigma must be non-negative.
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.NormFloat64()
}

// Exp draws from an exponential distribution with the given mean
// (scale parameter, not rate).
func (s *Source) Exp(mean float64) float64 {
	return mean * s.ExpFloat64()
}

// LogNormal draws X such that ln X ~ N(mu, sigma).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto draws from a Pareto distribution with the given minimum xm and
// shape alpha. Heavy-tailed; used for high-magnitude laggard models.
//
// Exactly one uniform is consumed per draw: the measure-zero u == 0
// case (one draw in 2^53) is clamped to the smallest positive Float64
// value instead of retrying, so the draw count per call is fixed and
// the sequence is unchanged for every u != 0.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	if u == 0 {
		u = 0x1p-53
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Uniform draws from [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}
