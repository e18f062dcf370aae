// Package montecarlo provides the sampling-based validation instruments of
// the pipeline:
//
//   - production-lot simulation: dice carry Poisson-sampled realistic
//     faults; applying the test campaign's detection data yields an
//     *empirical* defect level to compare against the closed-form models
//     (eq. 3 / eq. 11);
//   - geometric defect injection: random spot defects are dropped on the
//     actual mask geometry and their electrical effect is derived
//     independently of the critical-area engine, cross-validating the
//     extracted fault list (completeness and relative likelihoods).
package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"defectsim/internal/fault"
)

// LotResult summarizes a simulated production lot.
type LotResult struct {
	Dies     int
	GoodDies int // no fault present
	Detected int // faulty and caught by the test set
	Escapes  int // faulty and shipped
}

// Yield returns the fraction of fault-free dies.
func (r LotResult) Yield() float64 {
	if r.Dies == 0 {
		return 0
	}
	return float64(r.GoodDies) / float64(r.Dies)
}

// DefectLevel returns shipped-defective over shipped (the quantity DL
// models predict).
func (r LotResult) DefectLevel() float64 {
	shipped := r.Dies - r.Detected
	if shipped == 0 {
		return 0
	}
	return float64(r.Escapes) / float64(shipped)
}

func (r LotResult) String() string {
	return fmt.Sprintf("%d dies: yield %.4f, %d detected, %d escapes → DL %.1f ppm",
		r.Dies, r.Yield(), r.Detected, r.Escapes, 1e6*r.DefectLevel())
}

// SimulateLot manufactures dies whose fault populations follow the
// weighted list's Poisson statistics (fault j occurs with rate w_j,
// independently), tests each die with the first k vectors of the campaign
// (detectedAt[j] is fault j's first-detection index, 0 = never detected)
// and returns the lot bookkeeping.
//
// A faulty die is caught when any of its present faults is individually
// detected — the single-fault-observability assumption shared with the
// analytic models, so the result validates the models' probability
// algebra, not fault-interaction effects.
func SimulateLot(list *fault.List, detectedAt []int, k, dies int, seed int64) LotResult {
	s := NewSampler(list, detectedAt, k, seed)
	return s.lot(dies, func() float64 { return s.lambda })
}

// Status is a die's disposition after test.
type Status uint8

// Die dispositions.
const (
	Good     Status = iota // no fault present
	Detected               // faulty and caught by the test set
	Escape                 // faulty and shipped
)

// Sampler is the die sampler shared by the lot and wafer simulations: a
// die with defect rate r carries Poisson(r) faults, each drawn from the
// weighted list (fault j with probability w_j/λ), and is caught when any
// of them is detected within the first k vectors. Callers differ only in
// each die's rate.
type Sampler struct {
	rng        *rand.Rand
	lambda     float64
	cum        []float64 // cumulative weights for O(log n) fault draws
	detectedAt []int
	k          int
}

// NewSampler returns a seeded sampler over list and the campaign's
// first-detection indices (detectedAt[j] = 0: fault j never detected).
func NewSampler(list *fault.List, detectedAt []int, k int, seed int64) *Sampler {
	if len(detectedAt) != len(list.Faults) {
		panic("montecarlo: detection data does not match the fault list")
	}
	s := &Sampler{
		rng:        rand.New(rand.NewSource(seed)),
		lambda:     list.TotalWeight(),
		cum:        make([]float64, len(list.Faults)),
		detectedAt: detectedAt,
		k:          k,
	}
	var acc float64
	for i, f := range list.Faults {
		acc += f.Weight
		s.cum[i] = acc
	}
	return s
}

// Lambda returns λ, the list's total weight: the mean fault count of a
// die under flat statistics.
func (s *Sampler) Lambda() float64 { return s.lambda }

// Die manufactures and tests one die with defect rate rate. It draws the
// Poisson fault count, then one fault per draw until one is detected.
func (s *Sampler) Die(rate float64) Status {
	n := poisson(s.rng, rate)
	if n == 0 {
		return Good
	}
	for i := 0; i < n; i++ {
		j := sort.SearchFloat64s(s.cum, s.rng.Float64()*s.lambda)
		if j >= len(s.cum) {
			j = len(s.cum) - 1
		}
		if det := s.detectedAt[j]; det > 0 && det <= s.k {
			return Detected
		}
	}
	return Escape
}

// lot samples dies dies, each at the rate the callback draws for it.
func (s *Sampler) lot(dies int, rate func() float64) LotResult {
	res := LotResult{Dies: dies}
	for d := 0; d < dies; d++ {
		switch s.Die(rate()) {
		case Good:
			res.GoodDies++
		case Detected:
			res.Detected++
		default:
			res.Escapes++
		}
	}
	return res
}

// poisson draws from Poisson(rate) by exponential inter-arrival
// multiplication (rate is small in this application).
func poisson(rng *rand.Rand, rate float64) int {
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
