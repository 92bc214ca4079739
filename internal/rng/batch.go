package rng

// Fast scalar and batch drawing paths.
//
// The embedded *rand.Rand reaches its PCG generator through the
// rand.Source interface, so every draw pays an interface call (and the
// ziggurat's table lookups cannot inline across it). The methods below
// shadow the embedded ones with versions that call the concrete
// (*rand.PCG).Uint64 directly — bit-identical sequences (see
// ziggurat.go and TestFastPathMatchesRand) at roughly half the per-draw
// cost — and the Fill* helpers amortize the method dispatch over a
// whole iteration block.
//
// Bit-identity contract: every Fill* helper consumes the underlying
// PCG stream in exactly the order, and combines draws with exactly the
// floating-point expression tree, of the scalar loop it replaces. The
// workload golden fingerprints (internal/cluster) and the element-wise
// batch-vs-scalar property tests pin this.

// Uint64 returns the next raw PCG output. Shadows (*rand.Rand).Uint64
// with a devirtualized, bit-identical version.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// Float64 returns a uniform draw in [0, 1). Shadows
// (*rand.Rand).Float64 with a devirtualized, bit-identical version.
func (s *Source) Float64() float64 { return float64pcg(s.pcg) }

// NormFloat64 returns a standard normal draw. Shadows
// (*rand.Rand).NormFloat64 with a devirtualized, bit-identical version.
func (s *Source) NormFloat64() float64 { return normFloat64pcg(s.pcg) }

// ExpFloat64 returns a unit-mean exponential draw. Shadows
// (*rand.Rand).ExpFloat64 with a devirtualized, bit-identical version.
func (s *Source) ExpFloat64() float64 { return expFloat64pcg(s.pcg) }

// FillNormal sets out[i] = Normal(mu, sigma) for every element —
// element-wise identical to the scalar loop.
func (s *Source) FillNormal(out []float64, mu, sigma float64) {
	p := s.pcg
	for i := range out {
		out[i] = mu + sigma*normFloat64pcg(p)
	}
}

// FillUniform sets out[i] = Uniform(lo, hi) for every element.
func (s *Source) FillUniform(out []float64, lo, hi float64) {
	p := s.pcg
	w := hi - lo
	for i := range out {
		out[i] = lo + w*float64pcg(p)
	}
}

// AddUniform sets out[i] = base + Uniform(lo, hi) for every element —
// the MiniMD phase-one block shape.
func (s *Source) AddUniform(out []float64, base, lo, hi float64) {
	p := s.pcg
	w := hi - lo
	for i := range out {
		out[i] = base + (lo + w*float64pcg(p))
	}
}

// FillNormalMinusExp sets
//
//	out[i] = base - Exp(expMean) + Normal(mu, sigma)
//
// for every element — the MiniFE block shape (left-skewed early
// arrivals). Draw order per element: one exponential, then one normal.
func (s *Source) FillNormalMinusExp(out []float64, base, expMean, mu, sigma float64) {
	p := s.pcg
	for i := range out {
		e := expMean * expFloat64pcg(p)
		n := mu + sigma*normFloat64pcg(p)
		out[i] = base - e + n
	}
}

// FillNormalStragglers sets out[i] = base + Normal(mu, sigma), then with
// probability prob (checked only when prob > 0, consuming one uniform
// per element) adds Exp(expMean) — the MiniMD phase-two block shape.
func (s *Source) FillNormalStragglers(out []float64, base, mu, sigma, prob, expMean float64) {
	p := s.pcg
	for i := range out {
		v := base + (mu + sigma*normFloat64pcg(p))
		if prob > 0 && float64pcg(p) < prob {
			v += expMean * expFloat64pcg(p)
		}
		out[i] = v
	}
}

// FillNormalExpTail sets
//
//	out[i] = center + Normal(mu, sigma) + Exp(tailMean) - tailMean
//
// for every element — the MiniQMC block shape (mean-compensated
// exponential right tail). Draw order per element: one normal, then
// one exponential.
func (s *Source) FillNormalExpTail(out []float64, center, mu, sigma, tailMean float64) {
	p := s.pcg
	for i := range out {
		n := mu + sigma*normFloat64pcg(p)
		e := tailMean * expFloat64pcg(p)
		out[i] = center + n + e - tailMean
	}
}
