package montecarlo

import (
	"math"
	"math/rand"

	"defectsim/internal/fault"
)

// SimulateClusteredLot is SimulateLot under Stapper-clustered defect
// statistics: each die draws its own defect rate multiplier from a
// Gamma(α, 1/α) distribution (mean 1) before Poisson fault sampling, so
// the marginal fault count is negative-binomial with clustering parameter
// α. As α → ∞ this degenerates to SimulateLot. The result validates the
// clustered defect-level model dlmodel.Clustered.
func SimulateClusteredLot(list *fault.List, detectedAt []int, k, dies int, alpha float64, seed int64) LotResult {
	if alpha <= 0 {
		panic("montecarlo: clustering parameter must be positive")
	}
	s := NewSampler(list, detectedAt, k, seed)
	return s.lot(dies, func() float64 { return s.lambda * gammaVariate(s.rng, alpha) / alpha })
}

// gammaVariate draws from Gamma(shape, 1) via Marsaglia–Tsang, with the
// standard boost for shape < 1.
func gammaVariate(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return gammaVariate(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
