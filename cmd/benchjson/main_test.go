package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: defectsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLayoutBuild        	     626	   1847475 ns/op	 4264359 B/op	    3196 allocs/op
BenchmarkGateLevelFaultSim-8	     746	   1615419 ns/op	   21850 B/op	      13 allocs/op
BenchmarkATPG               	      18	  64262993 ns/op
PASS
ok  	defectsim	39.410s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("env header: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	// Sorted by name; GOMAXPROCS suffix stripped.
	if doc.Benchmarks[1].Name != "BenchmarkGateLevelFaultSim" {
		t.Fatalf("name = %q (suffix not stripped or unsorted)", doc.Benchmarks[1].Name)
	}
	e := doc.Benchmarks[1]
	if e.Iterations != 746 || e.NsPerOp != 1615419 || e.BytesPerOp != 21850 || e.AllocsPerOp != 13 {
		t.Fatalf("entry: %+v", e)
	}
	// -benchmem tail optional.
	if a := doc.Benchmarks[0]; a.Name != "BenchmarkATPG" || a.BytesPerOp != 0 {
		t.Fatalf("entry without benchmem: %+v", a)
	}
}

// TestParseGOMAXPROCS: the stripped -N suffix lands in the header (no
// suffix means 1), and compare and delta print both sides' value, with
// a document recorded without it reading "unknown".
func TestParseGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"BenchmarkA-2\t10\t5 ns/op\nBenchmarkB-2\t10\t5 ns/op\n", 2},
		{"BenchmarkA\t10\t5 ns/op\n", 1},
		{"PASS\n", 0},
	} {
		doc, err := parse(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if doc.GOMAXPROCS != tc.want {
			t.Fatalf("parse(%q).GOMAXPROCS = %d, want %d", tc.in, doc.GOMAXPROCS, tc.want)
		}
	}
	base := &Doc{Benchmarks: []Entry{{Name: "BenchmarkA", NsPerOp: 100}}}
	cur := &Doc{GOMAXPROCS: 4, Benchmarks: []Entry{{Name: "BenchmarkA", NsPerOp: 100}}}
	var out strings.Builder
	if failed := compare(&out, base, cur, 1.5, 1.1, nil); len(failed) != 0 {
		t.Fatalf("gomaxprocs gated: %v", failed)
	}
	if !strings.Contains(out.String(), "gomaxprocs: baseline unknown, current 4") {
		t.Fatalf("compare header missing gomaxprocs:\n%s", out.String())
	}
	out.Reset()
	delta(&out, cur, base)
	if !strings.Contains(out.String(), "gomaxprocs: previous 4, current unknown") {
		t.Fatalf("delta header missing gomaxprocs:\n%s", out.String())
	}
}

func TestCompareGate(t *testing.T) {
	base := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 100},
		{Name: "BenchmarkRetired", NsPerOp: 100},
	}}
	cur := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkA", NsPerOp: 250}, // within 3x
		{Name: "BenchmarkB", NsPerOp: 400}, // beyond 3x
		{Name: "BenchmarkNew", NsPerOp: 1}, // no baseline: never fails
	}}
	var out strings.Builder
	failed := compare(&out, base, cur, 3.0, 1.1, nil)
	if len(failed) != 1 || failed[0] != "BenchmarkB ns/op" {
		t.Fatalf("failed = %v, want [BenchmarkB ns/op]", failed)
	}
	for _, want := range []string{"REGRESSED", "NEW", "MISSING", "BenchmarkRetired"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareAllocGate(t *testing.T) {
	base := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkNoMem", NsPerOp: 100}, // converted without -benchmem
	}}
	cur := &Doc{Benchmarks: []Entry{
		// Fast wall time but 2x the bytes and 3x the allocs: the alloc
		// gate must catch what the ns gate absorbs.
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 2000, AllocsPerOp: 30},
		// Zero baseline ⇒ no alloc gate even with huge current values.
		{Name: "BenchmarkNoMem", NsPerOp: 100, BytesPerOp: 1 << 30, AllocsPerOp: 1 << 20},
	}}
	var out strings.Builder
	failed := compare(&out, base, cur, 1.5, 1.1, nil)
	want := []string{"BenchmarkA B/op", "BenchmarkA allocs/op"}
	if len(failed) != 2 || failed[0] != want[0] || failed[1] != want[1] {
		t.Fatalf("failed = %v, want %v", failed, want)
	}
}

func TestCompareOverride(t *testing.T) {
	base := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkNoisy", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "BenchmarkQuiet", NsPerOp: 100, AllocsPerOp: 10},
	}}
	cur := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkNoisy", NsPerOp: 300, AllocsPerOp: 25},
		{Name: "BenchmarkQuiet", NsPerOp: 300, AllocsPerOp: 25},
	}}
	ov := overrides{}
	if err := ov.Set("BenchmarkNoisy=4.0"); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failed := compare(&out, base, cur, 1.5, 1.1, ov)
	// The override absorbs BenchmarkNoisy entirely; BenchmarkQuiet still
	// fails both its gates.
	want := []string{"BenchmarkQuiet ns/op", "BenchmarkQuiet allocs/op"}
	if len(failed) != 2 || failed[0] != want[0] || failed[1] != want[1] {
		t.Fatalf("failed = %v, want %v", failed, want)
	}
	if err := ov.Set("garbage"); err == nil {
		t.Fatal("Set(garbage) accepted")
	}
	if err := ov.Set("Name=-1"); err == nil {
		t.Fatal("Set(Name=-1) accepted")
	}
}

func TestDeltaTable(t *testing.T) {
	prev := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkA", NsPerOp: 200, BytesPerOp: 1000, AllocsPerOp: 10},
	}}
	cur := &Doc{Benchmarks: []Entry{
		{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 500, AllocsPerOp: 10},
		{Name: "BenchmarkNew", NsPerOp: 7},
	}}
	var out strings.Builder
	delta(&out, prev, cur)
	got := out.String()
	for _, want := range []string{
		"| benchmark | ns/op | B/op | allocs/op |",
		"| BenchmarkA | 100 ns (-50.0%) | 500 B (-50.0%) | 10 allocs (+0.0%) |",
		"| BenchmarkNew | 7 ns |",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("delta table missing %q:\n%s", want, got)
		}
	}
}

// TestPositionalsTrailingFlags pins the documented CLI shape: the file
// arguments may precede the tuning flags (benchjson -compare BASE
// CURRENT -tolerance 1.5), which the stdlib flag package alone rejects
// by stopping at the first positional.
func TestPositionalsTrailingFlags(t *testing.T) {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tol := fs.Float64("tolerance", 1.5, "")
	alloc := fs.Float64("alloc-tolerance", 1.1, "")

	// The CI gate's exact argument order, minus the leading -compare
	// (consumed by the initial top-level parse).
	pos, err := positionals(fs, []string{
		"BENCH_seed.json", "BENCH_ci.json", "-tolerance", "2.0", "-alloc-tolerance", "1.25",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 2 || pos[0] != "BENCH_seed.json" || pos[1] != "BENCH_ci.json" {
		t.Fatalf("positionals = %v", pos)
	}
	if *tol != 2.0 || *alloc != 1.25 {
		t.Fatalf("trailing flags not applied: tolerance=%v alloc=%v", *tol, *alloc)
	}

	// Interleaved order and flags-first both behave identically.
	pos, err = positionals(fs, []string{"-tolerance", "3.0", "a.json", "-alloc-tolerance", "1.5", "b.json"})
	if err != nil || len(pos) != 2 || *tol != 3.0 || *alloc != 1.5 {
		t.Fatalf("interleaved parse: pos=%v err=%v tol=%v alloc=%v", pos, err, *tol, *alloc)
	}

	// A bad flag surfaces as an error, not a silent positional.
	if _, err := positionals(fs, []string{"a.json", "-no-such-flag"}); err == nil {
		t.Fatal("unknown trailing flag accepted")
	}
}

// TestNumCPU: conversion records the converting process's core count,
// and compare and delta print both sides' value beside gomaxprocs — a
// document recorded without it reads "unknown" — without gating on it.
func TestNumCPU(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.NumCPU != runtime.NumCPU() {
		t.Fatalf("NumCPU = %d, want runtime.NumCPU() = %d", doc.NumCPU, runtime.NumCPU())
	}
	js, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"num_cpu":%d`, runtime.NumCPU()); !strings.Contains(string(js), want) {
		t.Fatalf("JSON lacks %s: %s", want, js)
	}
	base := &Doc{GOMAXPROCS: 2, Benchmarks: []Entry{{Name: "BenchmarkA", NsPerOp: 100}}}
	cur := &Doc{GOMAXPROCS: 2, NumCPU: 8, Benchmarks: []Entry{{Name: "BenchmarkA", NsPerOp: 100}}}
	var out strings.Builder
	if failed := compare(&out, base, cur, 1.5, 1.1, nil); len(failed) != 0 {
		t.Fatalf("num_cpu gated: %v", failed)
	}
	if !strings.Contains(out.String(), "gomaxprocs: baseline 2, current 2; num_cpu: baseline unknown, current 8") {
		t.Fatalf("compare header missing num_cpu:\n%s", out.String())
	}
	out.Reset()
	delta(&out, cur, base)
	if !strings.Contains(out.String(), "num_cpu: previous 8, current unknown") {
		t.Fatalf("delta header missing num_cpu:\n%s", out.String())
	}
}
