// Command benchjson converts `go test -bench` text output into a stable
// JSON document and compares two such documents for regressions — the
// repo's CI benchmark gate.
//
// Usage:
//
//	go test -bench=. -benchmem . | benchjson -o BENCH_ci.json
//	benchjson -compare BENCH_seed.json BENCH_ci.json -tolerance 1.5 -alloc-tolerance 1.1
//	benchjson -delta BENCH_prev.json BENCH_ci.json
//
// Conversion reads benchmark lines ("BenchmarkName-8  100  123 ns/op ...")
// from stdin, strips the GOMAXPROCS suffix, and writes one entry per
// benchmark together with the run's environment header (goos/goarch/cpu,
// gomaxprocs from the first benchmark line's suffix, and num_cpu, the
// core count runtime.NumCPU reports to the converting process — so
// convert on the machine that ran the benchmarks, as CI does).
//
// Compare exits non-zero when a benchmark present in both documents got
// worse than baseline × tolerance on any gated metric. Wall time is gated
// at -tolerance (default 1.5: catches lost optimizations while absorbing
// ordinary runner-speed variance). bytes_per_op and allocs_per_op are
// gated at -alloc-tolerance (default 1.1): allocation counts are
// deterministic, so almost any headroom there is a real leak of work back
// into the hot path, not noise. Metrics the baseline recorded as zero are
// not gated (a ratio against zero is meaningless; baselines converted
// without -benchmem simply skip the allocation gates). A repeatable
// -override Name=ratio flag raises every limit for one benchmark — the
// escape hatch for a benchmark with a known-noisy profile — without
// loosening the gate for the rest of the suite. Benchmarks present on
// only one side are reported but never fail the gate, so adding or
// retiring a benchmark does not need a baseline refresh in the same
// change.
//
// Delta prints a GitHub-flavored markdown table of ns/bytes/allocs
// changes between two documents — for CI job summaries, never a gate.
// Compare and delta both print each side's gomaxprocs and num_cpu (a
// document recorded without one reads "unknown"); neither gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Doc is the JSON document: environment header plus sorted entries.
type Doc struct {
	GOOS       string  `json:"goos,omitempty"`
	GOARCH     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"` // go test's -N name suffix (none: 1); 0 is unknown
	NumCPU     int     `json:"num_cpu,omitempty"`    // runtime.NumCPU() of the converting process; 0 is unknown
	Benchmarks []Entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line. The -N GOMAXPROCS
// suffix is split off so baselines compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{NumCPU: runtime.NumCPU()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if doc.GOMAXPROCS == 0 {
			doc.GOMAXPROCS = 1
			if m[2] != "" {
				doc.GOMAXPROCS, _ = strconv.Atoi(m[2])
			}
		}
		e := Entry{Name: m[1]}
		e.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		e.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		// Optional -benchmem tail: "  N B/op  M allocs/op".
		tail := strings.Fields(m[5])
		for i := 0; i+1 < len(tail); i++ {
			switch tail[i+1] {
			case "B/op":
				e.BytesPerOp, _ = strconv.ParseInt(tail[i], 10, 64)
			case "allocs/op":
				e.AllocsPerOp, _ = strconv.ParseInt(tail[i], 10, 64)
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

func load(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &Doc{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// overrides maps benchmark name → per-benchmark tolerance that replaces
// every metric's limit for that benchmark. Implements flag.Value so
// -override can repeat.
type overrides map[string]float64

func (o overrides) String() string { return "" }

func (o overrides) Set(s string) error {
	name, ratio, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want Name=ratio, got %q", s)
	}
	v, err := strconv.ParseFloat(ratio, 64)
	if err != nil || v <= 0 {
		return fmt.Errorf("bad ratio in %q", s)
	}
	o[name] = v
	return nil
}

// known renders a header count (GOMAXPROCS, NumCPU) for the compare and
// delta headers; 0 means the document was recorded without it.
func known(v int) string {
	if v == 0 {
		return "unknown"
	}
	return strconv.Itoa(v)
}

// limits holds the gate limits for one benchmark after overrides.
type limits struct {
	ns, alloc float64
}

// compare prints a per-benchmark verdict for every gated metric and
// returns the "name metric" pairs that got worse than their limit.
// Metrics the baseline recorded as 0 are skipped.
func compare(w io.Writer, base, cur *Doc, tolerance, allocTolerance float64, ov overrides) []string {
	baseBy := map[string]Entry{}
	for _, e := range base.Benchmarks {
		baseBy[e.Name] = e
	}
	fmt.Fprintf(w, "gomaxprocs: baseline %s, current %s; num_cpu: baseline %s, current %s\n",
		known(base.GOMAXPROCS), known(cur.GOMAXPROCS), known(base.NumCPU), known(cur.NumCPU))
	var failed []string
	seen := map[string]bool{}
	for _, e := range cur.Benchmarks {
		seen[e.Name] = true
		b, ok := baseBy[e.Name]
		if !ok {
			fmt.Fprintf(w, "NEW      %-36s %14.0f ns/op (no baseline)\n", e.Name, e.NsPerOp)
			continue
		}
		lim := limits{ns: tolerance, alloc: allocTolerance}
		if v, ok := ov[e.Name]; ok {
			lim = limits{ns: v, alloc: v}
		}
		gate := func(metric string, cur, base, limit float64) {
			if base == 0 {
				return
			}
			ratio := cur / base
			verdict := "ok"
			if ratio > limit {
				verdict = "REGRESSED"
				failed = append(failed, e.Name+" "+metric)
			}
			fmt.Fprintf(w, "%-9s%-36s %14.0f %-9s baseline %14.0f  ratio %.2fx (limit %.2fx)\n",
				verdict, e.Name, cur, metric, base, ratio, limit)
		}
		gate("ns/op", e.NsPerOp, b.NsPerOp, lim.ns)
		gate("B/op", float64(e.BytesPerOp), float64(b.BytesPerOp), lim.alloc)
		gate("allocs/op", float64(e.AllocsPerOp), float64(b.AllocsPerOp), lim.alloc)
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(w, "MISSING  %-36s baseline %14.0f ns/op (not run)\n", b.Name, b.NsPerOp)
		}
	}
	return failed
}

// delta prints a markdown table of per-benchmark changes between prev and
// cur — informational only.
func delta(w io.Writer, prev, cur *Doc) {
	prevBy := map[string]Entry{}
	for _, e := range prev.Benchmarks {
		prevBy[e.Name] = e
	}
	cell := func(cur, prev float64, unit string) string {
		if prev == 0 {
			return fmt.Sprintf("%.0f %s", cur, unit)
		}
		return fmt.Sprintf("%.0f %s (%+.1f%%)", cur, unit, 100*(cur/prev-1))
	}
	fmt.Fprintf(w, "gomaxprocs: previous %s, current %s; num_cpu: previous %s, current %s\n\n",
		known(prev.GOMAXPROCS), known(cur.GOMAXPROCS), known(prev.NumCPU), known(cur.NumCPU))
	fmt.Fprintln(w, "| benchmark | ns/op | B/op | allocs/op |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, e := range cur.Benchmarks {
		p := prevBy[e.Name]
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", e.Name,
			cell(e.NsPerOp, p.NsPerOp, "ns"),
			cell(float64(e.BytesPerOp), float64(p.BytesPerOp), "B"),
			cell(float64(e.AllocsPerOp), float64(p.AllocsPerOp), "allocs"))
	}
}

// positionals walks the arguments left after the initial flag.Parse,
// returning the non-flag arguments in order and feeding any later flag
// runs back through fs. Go's flag package stops at the first positional,
// but the documented invocations put the file arguments before the
// tuning flags (benchjson -compare BASE CURRENT -tolerance 1.5), so
// parsing must resume after each positional.
func positionals(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for len(args) > 0 {
		if len(args[0]) > 1 && args[0][0] == '-' {
			if err := fs.Parse(args); err != nil {
				return nil, err
			}
			args = fs.Args()
			continue
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	return pos, nil
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	cmp := flag.Bool("compare", false, "compare two JSON documents: benchjson -compare BASE CURRENT")
	dlt := flag.Bool("delta", false, "print a markdown delta table: benchjson -delta PREV CURRENT")
	tolerance := flag.Float64("tolerance", 1.5, "ns/op gate: fail when current > baseline × tolerance")
	allocTolerance := flag.Float64("alloc-tolerance", 1.1, "B/op and allocs/op gate: fail when current > baseline × tolerance")
	ov := overrides{}
	flag.Var(ov, "override", "per-benchmark tolerance for all metrics, Name=ratio (repeatable)")
	flag.Parse()
	files, err := positionals(flag.CommandLine, flag.Args())
	if err != nil {
		os.Exit(2) // flag.ExitOnError has already printed the message
	}

	loadPair := func(usage string) (*Doc, *Doc) {
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "usage:", usage)
			os.Exit(2)
		}
		a, err := load(files[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		b, err := load(files[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		return a, b
	}

	switch {
	case *cmp:
		base, cur := loadPair("benchjson -compare BASE.json CURRENT.json [-tolerance 1.5] [-alloc-tolerance 1.1] [-override Name=ratio]")
		failed := compare(os.Stdout, base, cur, *tolerance, *allocTolerance, ov)
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metric(s) regressed: %s\n",
				len(failed), strings.Join(failed, ", "))
			os.Exit(1)
		}
		return
	case *dlt:
		prev, cur := loadPair("benchjson -delta PREV.json CURRENT.json")
		delta(os.Stdout, prev, cur)
		return
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(2)
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(*out, js, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
}
