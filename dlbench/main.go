// Command dlbench is the end-to-end benchmark of the defect-level
// projection service. It runs the real serving stack (serve.New with
// dlprojd's defaults and an FS result store) behind a loopback HTTP
// listener, drives it from a closed-loop client in the same process,
// checks every response against the oracle table in golden.json and
// prints the end-to-end metrics of one workload. With -trace 1 it
// instead makes an untraced and a traced run of the same request
// sequence, reads each request's stage times from the run report the
// server returns with the result, replays the result codec and store
// calls the report does not cover, and prints the per-layer metrics.
//
// Build and run it through run.sh from the repository root:
//
//	bash dlbench/run.sh --workload small_mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object.
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold_c432 or small_mix")
	seed := fs.Int64("seed", 1, "workload seed: orders the pool entries sent")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase, which sizes the request sequence")
	traced := fs.Int("trace", 0, "1: traced run with per-layer metrics; 0: end-to-end metrics")
	dir := fs.String("dir", ".bench_build", "directory for result stores and span dumps")
	golden := fs.String("golden", "", "recompute the oracle table into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := writeGolden(context.Background(), *golden); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	var p *pool
	if err == nil {
		p, err = loadPool()
	}
	var pl plan
	if err == nil {
		pl, err = w.plan(p, *seed, w.requests(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 2
	}
	runDir, err := os.MkdirTemp(mkdir(*dir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{w: w, pl: pl, seed: *seed, seconds: *seconds, dir: runDir, out: stdout}
	b.printMeta()
	var res result
	if *traced == 1 {
		res, err = b.tracedRun(filepath.Join(mkdir(*dir), "traces"))
	} else {
		res, err = b.untracedRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "dlbench: FAIL:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces on first use
	return dir
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	attempted, failed int
	// failures lists every oracle or protocol failure, timed or not; any
	// makes the run incorrect.
	failures []string
	metrics  map[string]metric
}

type bench struct {
	w       workload
	pl      plan
	seed    int64
	seconds int
	dir     string
	out     io.Writer
	nrun    int
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, "dlbench: "+format+"\n", args...)
}

func (b *bench) put(res *result, name string, v float64, unit, note string) {
	res.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = " (" + note + ")"
	}
	b.printf("%-34s %14.6g %s%s", name, v, unit, note)
}

// printMeta prints what the results depend on besides the code.
func (b *bench) printMeta() {
	rev, goVersion := "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+modified"
			}
		}
	}
	b.printf("workload=%s seed=%d seconds=%d clients=1 timed_requests=%d setup_reps=%d",
		b.w.name, b.seed, b.seconds, len(b.pl.timed), b.w.setupReps)
	b.printf("num_cpu=%d gomaxprocs=%d go=%s revision=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), goVersion, rev)
}

// phase is one fresh server, set up and then driven through the timed
// request sequence.
type phase struct {
	s *server
	// setupWall and setupCPU are each set-up's wall time and the CPU time
	// the process spent in it.
	setupWall, setupCPU []time.Duration
	timed               []outcome
	// elapsed and cpu are the timed phase's wall time and the CPU time
	// the process spent in it; alloc the Go heap the process allocated
	// during it; retained the live heap it left behind (measured only
	// when asked, as it needs two forced collections).
	elapsed, cpu    time.Duration
	alloc, retained uint64
	// steal is the share of the machine's CPU time that the hypervisor
	// gave to other guests during the timed phase, or -1 when unknown.
	steal    float64
	failures []string
}

// setUp starts a fresh server with an empty store and sends the
// workload's warm-up through it, reps times; the last server stays up.
// Each set-up is timed from the start of its server to the end of its
// warm-up, in wall time and in the process's CPU time. Stopping the
// earlier servers, removing their stores and collecting their garbage is
// not timed.
func (b *bench) setUp(ctx context.Context, tr *tracer, reps int) (*phase, error) {
	ph := &phase{}
	for i := 0; i < reps; i++ {
		if ph.s != nil {
			if err := ph.s.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(ph.s.storeDir); err != nil {
				return nil, err
			}
			runtime.GC() // the stopped server's jobs are garbage now
		}
		b.nrun++
		t0, c0 := time.Now(), processCPU()
		s, err := startServer(filepath.Join(b.dir, "store-"+strconv.Itoa(b.nrun)))
		if err != nil {
			return nil, err
		}
		ph.s = s
		warm := s.sendSeq(ctx, tr, b.pl.warmup, "w"+strconv.Itoa(b.nrun), time.Time{})
		ph.setupWall = append(ph.setupWall, time.Since(t0))
		ph.setupCPU = append(ph.setupCPU, processCPU()-c0)
		for _, o := range warm {
			if o.err == nil && b.pl.paper {
				o.err = checkPaper(o.out)
			}
			if o.err != nil {
				ph.failures = append(ph.failures, fmt.Sprintf("warm-up %s: %v", o.e, o.err))
			}
		}
	}
	return ph, nil
}

// drive runs the timed phase on the set-up server. A run stops sending
// new requests after three times its nominal length, so that a much
// slower build still ends in bounded time.
func (b *bench) drive(ctx context.Context, tr *tracer, ph *phase, measureRetained bool) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	steal0, total0 := hostCPU()
	start, cpu0 := time.Now(), processCPU()
	cutoff := start.Add(3 * time.Duration(b.seconds) * time.Second)
	ph.timed = ph.s.sendSeq(ctx, tr, b.pl.timed, "t"+strconv.Itoa(b.nrun), cutoff)
	ph.elapsed, ph.cpu = time.Since(start), processCPU()-cpu0
	ph.steal = -1
	if steal1, total1 := hostCPU(); total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if unsent := len(b.pl.timed) - len(ph.timed); unsent > 0 {
		ph.failures = append(ph.failures, fmt.Sprintf("%d requests not sent: the timed phase ran past %d s", unsent, 3*b.seconds))
	}
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	if measureRetained {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		ph.retained = m1.HeapAlloc - min(m1.HeapAlloc, m0.HeapAlloc)
	}
	for _, o := range ph.timed {
		if o.err != nil {
			ph.failures = append(ph.failures, fmt.Sprintf("request %s (%s): %v", o.rid, o.e, o.err))
		}
	}
}

// sendSeq runs one closed-loop client: each request is sent after the
// previous one completed. Requests due after cutoff (when set) are not
// sent. A request whose result hits the store or differs from the
// oracle fails: every configuration a run sends is new to its server.
func (s *server) sendSeq(ctx context.Context, tr *tracer, seq []entry, tag string, cutoff time.Time) []outcome {
	var out []outcome
	for i, e := range seq {
		if !cutoff.IsZero() && time.Now().After(cutoff) {
			break
		}
		o := s.send(ctx, tr, e, fmt.Sprintf("%s-%d", tag, i))
		if o.err == nil && o.hit {
			o.err = errors.New("cache_hit is true for a configuration new to this server")
		}
		if o.err == nil {
			o.err = checkOutputs(e.outputs, o.out)
		}
		out = append(out, o)
	}
	return out
}

// sortedMS returns f of the successful requests, sorted, in
// milliseconds.
func sortedMS(outs []outcome, f func(outcome) time.Duration) []float64 {
	var vals []float64
	for _, o := range outs {
		if o.err == nil {
			vals = append(vals, ms(f(o)))
		}
	}
	sort.Float64s(vals)
	return vals
}

func latency(o outcome) time.Duration { return o.latency }
func cpuTime(o outcome) time.Duration { return o.cpu }

// untracedRun measures the end-to-end metrics. The bounded time metrics
// are CPU time, which the hypervisor's steal does not inflate: on a
// shared virtual machine, wall time follows how much of the host other
// guests take. The wall-time figures of the same run are printed beside
// them.
func (b *bench) untracedRun() (result, error) {
	ctx := context.Background()
	ph, err := b.setUp(ctx, nil, b.w.setupReps)
	if err != nil {
		return result{}, err
	}
	b.drive(ctx, nil, ph, false)
	rss := peakRSS()
	if err := ph.s.stop(); err != nil {
		return result{}, err
	}
	res := result{attempted: len(b.pl.timed), metrics: map[string]metric{}, failures: ph.failures}
	ok := 0
	for _, o := range ph.timed {
		if o.err == nil {
			ok++
		}
	}
	res.failed = res.attempted - ok
	setupCPU, setupWall := seconds(ph.setupCPU), seconds(ph.setupWall)
	b.put(&res, "setup_s", median(setupCPU), "s", fmt.Sprintf("CPU time, median of %d set-ups: %s", len(setupCPU), fmtList(setupCPU, 3)))
	b.put(&res, "cpu_ms_per_op", ms(ph.cpu)/float64(max(ok, 1)), "ms",
		fmt.Sprintf("%.3f CPU s over %d requests", ph.cpu.Seconds(), ok))
	cpu := sortedMS(ph.timed, cpuTime)
	b.put(&res, "cpu_ms_p50", percentile(cpu, 50), "ms", fmt.Sprintf("n=%d", len(cpu)))
	b.put(&res, "cpu_ms_p90", percentile(cpu, 90), "ms", fmt.Sprintf("n=%d, %s", len(cpu), beyond(len(cpu), 90)))
	b.put(&res, "alloc_mb_per_op", float64(ph.alloc)/mib/float64(max(ok, 1)), "MiB", "whole process, timed phase")
	b.put(&res, "peak_rss_mb", rss, "MiB", "VmHWM")
	b.printf("%-34s %14.6g ratio (%d of %d failed)", "failed_ratio", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)

	// Wall time, not bounded: it follows the host's steal.
	lat := sortedMS(ph.timed, latency)
	b.printf("wall: %-28s %14.6g s (median of %d set-ups: %s)", "setup_s", median(setupWall), len(setupWall), fmtList(setupWall, 3))
	b.printf("wall: %-28s %14.6g 1/s (%d requests in %.3f s)", "ops_per_s", float64(ok)/ph.elapsed.Seconds(), ok, ph.elapsed.Seconds())
	b.printf("wall: %-28s %14.6g ms (n=%d)", "latency_ms_p50", percentile(lat, 50), len(lat))
	b.printf("wall: %-28s %14.6g ms (n=%d, %s)", "latency_ms_p90", percentile(lat, 90), len(lat), beyond(len(lat), 90))
	b.printSteal(ph)
	return res, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// beyond says how many of n sorted samples lie past percentile p.
func beyond(n int, p float64) string {
	return fmt.Sprintf("%d beyond", n-int(p/100*float64(n)))
}

const mib = 1 << 20

// printSteal reports how much of the machine the hypervisor took away
// during the timed phase; on a shared host, runs with high steal are
// slower for reasons outside the program.
func (b *bench) printSteal(ph *phase) {
	if ph.steal < 0 {
		b.printf("host_steal=unknown")
		return
	}
	b.printf("host_steal=%.1f%% of CPU time during the timed phase", 100*ph.steal)
}

// hostCPU reads the machine's steal time and its total CPU time, in
// clock ticks, from /proc/stat; both are 0 where it is unavailable.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// processCPU returns the CPU time, user and system, that every thread of
// the process has used so far. Linux leaves the hypervisor's steal out of
// it where the kernel accounts paravirtual steal time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// percentile interpolates linearly between the closest ranks of sorted
// values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func fmtList(vs []float64, prec int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', prec, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
