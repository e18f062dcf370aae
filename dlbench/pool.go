package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"defectsim/internal/experiments"
	"defectsim/internal/netlist"
)

// outputs are the result fields the oracle compares, with the JSON names
// of GET /v1/pipeline/{id}/result. Every field must match exactly.
type outputs struct {
	Yield           float64 `json:"yield"`
	Vectors         int     `json:"vectors"`
	StuckAtCoverage float64 `json:"stuck_at_coverage"`
	ThetaFinal      float64 `json:"theta_final"`
	GammaFinal      float64 `json:"gamma_final"`
	FittedR         float64 `json:"fitted_r"`
	FittedThetaMax  float64 `json:"fitted_theta_max"`
	ResidualPPM     float64 `json:"residual_ppm"`
	Degraded        bool    `json:"degraded"`
}

// entry is one request configuration of the pool with its expected
// outputs.
type entry struct {
	Circuit string `json:"circuit"`
	Seed    int64  `json:"seed"`
	outputs
}

func (e entry) String() string { return fmt.Sprintf("%s/seed=%d", e.Circuit, e.Seed) }

// body is the POST /v1/pipeline request for the entry.
func (e entry) body() []byte {
	return []byte(fmt.Sprintf(`{"circuit":%q,"seed":%d}`, e.Circuit, e.Seed))
}

// pool is the oracle table: every configuration a run may send, with the
// outputs the pipeline produced for it when the table was made. The
// workload seed only chooses and orders entries, so every seed stays
// checkable.
type pool struct {
	// Paper is the c432class-1994 configuration of the paper's case
	// study: cold_c432's warm-up.
	Paper entry `json:"paper"`
	// C432 are other c432-class seeds, for cold_c432's timed requests.
	C432 []entry `json:"c432"`
	// SmallWarm holds one configuration per small circuit: small_mix's
	// warm-up.
	SmallWarm []entry `json:"small_warm"`
	// Small are small-circuit × seed configurations for small_mix's timed
	// requests, in seed order for each circuit.
	Small []entry `json:"small"`
}

//go:embed golden.json
var goldenJSON []byte

func loadPool() (*pool, error) {
	var p pool
	if err := json.Unmarshal(goldenJSON, &p); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &p, nil
}

// smallCircuits are the small generated circuits of small_mix.
var smallCircuits = []string{"c17", "adder", "mux", "parity", "cmp", "dec"}

// Candidate configurations for golden.json. Entries whose result is
// degraded are left out of the table.
const (
	paperSeed      = 1994
	smallWarmSeed  = 1994
	smallPoolSeeds = 80 // seeds 1..80 of every small circuit
)

// c432PoolSeeds are the c432-class seeds of the pool, in the order runs
// use them: a run of n requests sends the first n. Eight cover a
// 60-second run.
var c432PoolSeeds = []int64{3, 5, 14, 16, 4, 17, 24, 26}

// outputsOf derives the oracle fields from a pipeline exactly as the
// serving layer builds a job result.
func outputsOf(p *experiments.Pipeline) outputs {
	o := outputs{
		Yield:           p.Yield,
		Vectors:         len(p.TestSet.Patterns),
		StuckAtCoverage: p.TestSet.Coverage(true),
		ThetaFinal:      p.ThetaCurve(false).Final(),
		GammaFinal:      p.GammaCurve().Final(),
		Degraded:        p.Degraded(),
	}
	if p.Yield > 0 && p.Yield < 1 {
		f5 := experiments.Figure5(p)
		o.FittedR = f5.Fitted.R
		o.FittedThetaMax = f5.Fitted.ThetaMax
		o.ResidualPPM = 1e6 * f5.Fitted.ResidualDL(p.Yield)
	}
	return o
}

// computeEntry runs the pipeline for one configuration, as a request
// with only circuit and seed set would.
func computeEntry(ctx context.Context, circuit string, seed int64) (entry, error) {
	nl, err := netlist.ByName(circuit, seed)
	if err != nil {
		return entry{}, err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	p, err := experiments.RunCtx(ctx, nl, cfg)
	if err != nil {
		return entry{}, fmt.Errorf("%s seed %d: %w", circuit, seed, err)
	}
	return entry{Circuit: circuit, Seed: seed, outputs: outputsOf(p)}, nil
}

// writeGolden recomputes the oracle table and writes it to path.
func writeGolden(ctx context.Context, path string) error {
	var p pool
	var err error
	if p.Paper, err = computeEntry(ctx, "c432", paperSeed); err != nil {
		return err
	}
	if err := checkPaper(p.Paper.outputs); err != nil {
		return err
	}
	keep := func(dst *[]entry, circuit string, seed int64) error {
		e, err := computeEntry(ctx, circuit, seed)
		if err != nil {
			return err
		}
		if e.Degraded {
			fmt.Fprintf(os.Stderr, "golden: dropping degraded %s\n", e)
			return nil
		}
		*dst = append(*dst, e)
		return nil
	}
	for _, s := range c432PoolSeeds {
		if err := keep(&p.C432, "c432", s); err != nil {
			return err
		}
	}
	for _, c := range smallCircuits {
		if err := keep(&p.SmallWarm, c, smallWarmSeed); err != nil {
			return err
		}
		for s := int64(1); s <= smallPoolSeeds; s++ {
			if err := keep(&p.Small, c, s); err != nil {
				return err
			}
		}
	}
	data, err := marshalPool(&p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// marshalPool writes the table with one entry per line, so that a
// changed result shows as a one-line difference.
func marshalPool(p *pool) ([]byte, error) {
	paper, err := json.Marshal(p.Paper)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n \"paper\": %s", paper)
	for _, l := range []struct {
		name string
		es   []entry
	}{{"c432", p.C432}, {"small_warm", p.SmallWarm}, {"small", p.Small}} {
		fmt.Fprintf(&b, ",\n %q: [", l.name)
		for i, e := range l.es {
			data, err := json.Marshal(e)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString("\n  ")
			b.Write(data)
		}
		b.WriteString("\n ]")
	}
	b.WriteString("\n}\n")
	return b.Bytes(), nil
}

// checkPaper checks the paper's case study against EXPERIMENTS.md:
// Θ = 0.9034 and DL = 1 − Y^(1−Θ) = 27 408 ppm.
func checkPaper(o outputs) error {
	theta := math.Round(o.ThetaFinal*1e4) / 1e4
	ppm := math.Round(1e6 * (1 - math.Pow(o.Yield, 1-o.ThetaFinal)))
	if theta != 0.9034 || ppm != 27408 {
		return fmt.Errorf("c432class-1994: Θ = %.4f, DL = %.0f ppm; EXPERIMENTS.md has Θ = 0.9034, DL = 27408 ppm", theta, ppm)
	}
	return nil
}

// checkOutputs compares a served result with its expected outputs.
func checkOutputs(want, got outputs) error {
	if want != got {
		return fmt.Errorf("outputs differ from the oracle: got %+v, want %+v", got, want)
	}
	return nil
}

// perm returns the entries in an order drawn from rng.
func perm(rng *rand.Rand, es []entry) []entry {
	out := make([]entry, len(es))
	for i, j := range rng.Perm(len(es)) {
		out[i] = es[j]
	}
	return out
}
