package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// plan is the request sequence of one run. Every run of a workload with
// the same --seconds sends the same configurations: the first ones of
// the pool, in pool order; the workload seed only orders them. With a
// handful of c432-class requests per run, drawing a subset would make a
// run's figures depend on the seeds drawn, as the cost of a c432-class
// request varies up to twofold between seeds.
type plan struct {
	// warmup is the set-up's named warm-up, sent by one client in order.
	warmup []entry
	// timed are the timed requests, sent by one closed-loop client in
	// order, each after the previous one completed.
	timed []entry
	// paper marks a warm-up that must reproduce the paper's case study.
	paper bool
}

// workload is one traffic mix. Every timed request misses the store.
type workload struct {
	name string
	// setupReps is how many times a run sets up a fresh server and
	// warms it up; setup_s is the median.
	setupReps int
	// perRequest is the nominal time one timed request takes on the
	// reference machine (2-core 2.0 GHz Xeon VM). A run sends
	// --seconds / perRequest requests, so its timed phase lasts about
	// --seconds there and every run does the same work.
	perRequest time.Duration
	plan       func(p *pool, seed int64, n int) (plan, error)
}

var workloads = []workload{
	{
		name: "cold_c432", setupReps: 3,
		perRequest: 7500 * time.Millisecond,
		plan:       planColdC432,
	},
	{
		name: "small_mix", setupReps: 5,
		perRequest: 190 * time.Millisecond,
		plan:       planSmallMix,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// requests sizes a run's timed phase from --seconds.
func (w workload) requests(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*float64(time.Second)/float64(w.perRequest))))
}

// planColdC432 sends distinct c432-class configurations, so every
// request misses the store. The warm-up is the paper's case study.
func planColdC432(p *pool, seed int64, n int) (plan, error) {
	if n > len(p.C432) {
		return plan{}, fmt.Errorf("cold_c432: %d requests, but the pool has %d c432-class entries", n, len(p.C432))
	}
	rng := rand.New(rand.NewSource(seed))
	return plan{
		warmup: []entry{p.Paper},
		timed:  perm(rng, p.C432[:n]),
		paper:  true,
	}, nil
}

// planSmallMix sends distinct small-circuit configurations in blocks
// holding one request per circuit, so every run has the same circuit
// mix. The warm-up sends one request per small circuit.
func planSmallMix(p *pool, seed int64, n int) (plan, error) {
	byCircuit := map[string][]entry{}
	for _, e := range p.Small {
		byCircuit[e.Circuit] = append(byCircuit[e.Circuit], e)
	}
	blocks := (n + len(p.SmallWarm) - 1) / len(p.SmallWarm)
	rng := rand.New(rand.NewSource(seed))
	var circuits []string
	for _, e := range p.SmallWarm {
		if len(byCircuit[e.Circuit]) < blocks {
			return plan{}, fmt.Errorf("small_mix: %d blocks, but the pool has %d %s entries", blocks, len(byCircuit[e.Circuit]), e.Circuit)
		}
		circuits = append(circuits, e.Circuit)
		byCircuit[e.Circuit] = perm(rng, byCircuit[e.Circuit][:blocks])
	}
	var seq []entry
	for b := 0; b < blocks; b++ {
		var block []entry
		for _, name := range circuits {
			block = append(block, byCircuit[name][b])
		}
		seq = append(seq, perm(rng, block)...)
	}
	return plan{warmup: p.SmallWarm, timed: seq}, nil
}
