package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"defectsim/internal/obs"
)

// Layer times, per timed request. Stages are top-level stages of the
// "pipeline" stage tree in the run report the server returned with the
// request: the server's own timing of that very run. Spans are the
// replay's layer calls, timed by their self time.
var layerTimes = []struct {
	metric string
	stages []string
	spans  []string
}{
	{"netlist.ms", nil, []string{"netlist.ByName"}},
	{"store.get_ms", nil, []string{"store.FS.Get"}},
	{"store.put_ms", nil, []string{"store.FS.Put"}},
	{"experiments.decode_ms", nil, []string{"experiments.DecodeCached"}},
	{"experiments.encode_ms", nil, []string{"experiments.EncodeCache"}},
	{"layout.ms", []string{"layout"}, nil},
	{"extract.lvs_ms", []string{"lvs"}, nil},
	{"extract.ms", []string{"extract"}, nil},
	{"transistor.ms", []string{"transistor-map"}, nil},
	{"fault.ms", []string{"scale-weights", "stuckat-collapse"}, nil},
	{"atpg.ms", []string{"atpg"}, nil},
	{"switchsim.ms", []string{"switch-sim"}, nil},
	{"fit.ms", []string{"curves"}, []string{"experiments.Figure5"}},
}

// Layer heap allocations, per timed request, from a report stage or a
// replay span.
var layerAllocs = []struct{ metric, stage, span string }{
	{"experiments.decode_alloc_mb", "", "experiments.DecodeCached"},
	{"layout.alloc_mb", "layout", ""},
	{"extract.alloc_mb", "extract", ""},
	{"switchsim.alloc_mb", "switch-sim", ""},
}

// runPhase are the replayed calls the server makes while a miss runs,
// between its running and terminal events, besides the pipeline stages:
// with those they make up serve.run_ms.
var runPhase = map[string]bool{"store.FS.Get": true, "experiments.EncodeCache": true, "store.FS.Put": true}

// tracedRun runs the request sequence untraced and then traced, each on
// a fresh server, replays every traced request, and reports the
// per-layer metrics. Spans and run reports are written to traceDir.
func (b *bench) tracedRun(traceDir string) (result, error) {
	ctx := context.Background()
	ref, err := b.setUp(ctx, nil, 1)
	if err != nil {
		return result{}, err
	}
	b.drive(ctx, nil, ref, false)
	if err := ref.s.stop(); err != nil {
		return result{}, err
	}

	tr := newTracer()
	ph, err := b.setUp(ctx, tr, 1)
	if err != nil {
		return result{}, err
	}
	b.drive(ctx, tr, ph, true)
	// Drained, the server runs nothing while the replay measures.
	if err := ph.s.stop(); err != nil {
		return result{}, err
	}
	res := result{attempted: 2 * len(b.pl.timed), metrics: map[string]metric{}}
	res.failures = append(ref.failures, ph.failures...)
	completed := 0
	for _, o := range append(ref.timed, ph.timed...) {
		if o.err == nil {
			completed++
		}
	}
	res.failed = res.attempted - completed

	rp, err := newReplayer(ctx, tr, filepath.Join(b.dir, "replay-store"), ph.s.storeDir)
	if err != nil {
		return result{}, err
	}
	var ok []outcome
	stages := map[string]map[string]*obs.StageReport{}
	reports := map[string]*obs.Report{}
	for _, o := range ph.timed {
		if o.err != nil {
			continue
		}
		st, err := pipelineStages(o.report)
		if err == nil {
			err = rp.miss(o)
		}
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("request %s (%s): %v", o.rid, o.e, err))
			continue
		}
		ok = append(ok, o)
		stages[o.rid] = st
		reports[o.rid] = o.report
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	if err := tr.writeJSON(tracePath, reports); err != nil {
		return result{}, err
	}
	b.printf("spans and run reports written to %s", tracePath)
	b.printSteal(ph)
	b.layerMetrics(&res, tr.snapshot(), stages, rp, ph, ok, percentile(sortedMS(ref.timed, cpuTime), 50))
	return res, nil
}

// pipelineStages returns the top-level stages of a run report's
// "pipeline" stage tree by name.
func pipelineStages(rep *obs.Report) (map[string]*obs.StageReport, error) {
	if rep == nil || len(rep.Stages) == 0 || rep.Stages[0].Name != "pipeline" {
		return nil, fmt.Errorf("the result carries no run report with a pipeline stage tree")
	}
	out := map[string]*obs.StageReport{}
	for _, s := range rep.Stages[0].Children {
		out[s.Name] = s
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianOf(outs []outcome, f func(outcome) float64) float64 {
	vs := make([]float64, len(outs))
	for i, o := range outs {
		vs[i] = f(o)
	}
	return median(vs)
}

// layerMetrics prints the per-layer metrics of the timed requests in ok,
// whose report stages are in stages and whose replays are in spans.
func (b *bench) layerMetrics(res *result, spans []span, stages map[string]map[string]*obs.StageReport, rp *replayer, ph *phase, ok []outcome, untracedP50 float64) {
	n := len(ok)
	perReq := 1 / float64(max(n, 1))
	note := fmt.Sprintf("median of %d", n)
	b.put(res, "serve.submit_ms", medianOf(ok, func(o outcome) float64 { return ms(o.submit) }), "ms", note)
	b.put(res, "serve.queue_wait_ms", medianOf(ok, func(o outcome) float64 { return ms(o.queueWait) }), "ms", note)
	b.put(res, "serve.run_ms", medianOf(ok, func(o outcome) float64 { return ms(o.run) }), "ms", note)
	b.put(res, "serve.result_ms", medianOf(ok, func(o outcome) float64 { return ms(o.result) }), "ms", note)
	b.put(res, "serve.result_kb", medianOf(ok, func(o outcome) float64 { return float64(o.resultBytes) / 1024 }), "KiB", note)
	b.put(res, "serve.retained_mb_per_job", float64(ph.retained)/mib*perReq, "MiB", "live heap after the timed phase")
	hits := 0
	for _, o := range ok {
		if o.hit {
			hits++
		}
	}
	b.put(res, "store.hit_ratio", float64(hits)*perReq, "ratio", fmt.Sprintf("%d of %d", hits, n))

	// Replay spans by request: each replay root's layer children with
	// their self times and allocations.
	self := selfTimes(spans)
	rootOf := map[int]string{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "replay" {
			rootOf[s.ID] = s.RequestID
		}
	}
	type call struct {
		self  time.Duration
		alloc uint64
	}
	replayed := map[string]map[string]call{} // request ID → span name → call
	for _, s := range spans {
		rid, isLayer := rootOf[s.Parent]
		if !isLayer {
			continue
		}
		if replayed[rid] == nil {
			replayed[rid] = map[string]call{}
		}
		c := replayed[rid][s.Name]
		c.self += self[s.ID]
		if s.AllocBytes != nil {
			c.alloc += *s.AllocBytes
		}
		replayed[rid][s.Name] = c
	}

	var layers, run, switchsim time.Duration
	for _, o := range ok {
		run += o.run
		for _, st := range stages[o.rid] {
			layers += time.Duration(st.DurationNS)
		}
		for name, c := range replayed[o.rid] {
			if runPhase[name] {
				layers += c.self
			}
		}
		if st := stages[o.rid]["switch-sim"]; st != nil {
			switchsim += time.Duration(st.DurationNS)
		}
	}
	for _, l := range layerTimes {
		var total time.Duration
		for _, o := range ok {
			for _, name := range l.stages {
				if st := stages[o.rid][name]; st != nil {
					total += time.Duration(st.DurationNS)
				}
			}
			for _, name := range l.spans {
				total += replayed[o.rid][name].self
			}
		}
		src := "server run report"
		if l.stages == nil {
			src = "replay"
		} else if l.spans != nil {
			src = "server run report + replay"
		}
		b.put(res, l.metric, ms(total)*perReq, "ms", fmt.Sprintf("per request, %s, %d requests", src, n))
	}
	for _, l := range layerAllocs {
		var total uint64
		for _, o := range ok {
			if st := stages[o.rid][l.stage]; st != nil {
				total += st.AllocBytes
			}
			if l.span != "" {
				total += replayed[o.rid][l.span].alloc
			}
		}
		b.put(res, l.metric, float64(total)/mib*perReq, "MiB", fmt.Sprintf("per request, %d requests", n))
	}
	envelope := 0
	for _, e := range rp.envelopes {
		envelope += e
	}
	b.put(res, "experiments.envelope_kb", float64(envelope)/1024*perReq, "KiB", "")
	b.put(res, "extract.faults", float64(rp.faults)*perReq, "count", "realistic faults per request")
	b.put(res, "atpg.vectors", float64(rp.vectors)*perReq, "count", "test-set length per request")
	b.put(res, "atpg.aborted", float64(rp.aborted), "count", "summed over the timed requests")
	b.put(res, "switchsim.fault_vectors", float64(rp.faultVectors), "count", "vectors simulated before detection, summed over faults and timed requests")
	fvs := 0.0
	if switchsim > 0 {
		fvs = float64(rp.faultVectors) / switchsim.Seconds()
	}
	b.put(res, "switchsim.fault_vectors_per_s", fvs, "1/s", "")
	b.put(res, "switchsim.undecided", float64(rp.undecided), "count", "summed over the timed requests")

	// Tracing cost, and how much of the server's run time the layers
	// account for.
	tracedP50 := percentile(sortedMS(ph.timed, cpuTime), 50)
	b.put(res, "trace.overhead_ms", tracedP50-untracedP50, "ms",
		fmt.Sprintf("cpu_ms_p50 traced %.3f - untraced %.3f", tracedP50, untracedP50))
	coverage := 0.0
	if run > 0 {
		coverage = float64(layers) / float64(run)
	}
	b.put(res, "trace.self_coverage", coverage, "ratio", "pipeline stages + replayed store and encode calls over serve.run_ms")
	b.put(res, "trace.spans", float64(len(spans)), "count", "")
}
