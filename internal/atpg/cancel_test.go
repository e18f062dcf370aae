package atpg

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
	"defectsim/internal/netlist"
	"defectsim/internal/obs"
)

// TestConstrainedSearchCancels pins the context check of a constrained
// search: on c432-class a PI-flip constraint — the kind n-detect's scan
// adds — makes one fault need more than ctxCheckStride backtracks, and a
// cancelled context stops that search at its first check, reporting it
// aborted.
func TestConstrainedSearchCancels(t *testing.T) {
	nl := netlist.C432Class(1994)
	gen, err := NewGenerator(nl)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.StuckAtUniverse(nl)[420]
	pat, status := gen.GenerateCtx(context.Background(), f, 2000)
	if status != StatusDetected {
		t.Fatalf("fault %v: plain search %v, want detected", f, status)
	}
	const pi = 15
	flip := []Assign{{Net: nl.PIs[pi], Value: L1}}
	if pat[pi] != 0 {
		flip[0].Value = L0
	}
	_, status, backtracks := gen.search(context.Background(), f, flip, 2000)
	if backtracks <= ctxCheckStride || status == StatusAborted {
		t.Fatalf("fault %v under %v: %v after %d backtracks; the pin needs a finished search longer than %d",
			f, flip, status, backtracks, ctxCheckStride)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, status, backtracks = gen.search(ctx, f, flip, 2000)
	if status != StatusAborted || backtracks != ctxCheckStride {
		t.Fatalf("cancelled search: %v after %d backtracks, want aborted after %d", status, backtracks, ctxCheckStride)
	}
	if _, status := gen.GenerateConstrained(ctx, f, flip, 2000); status != StatusAborted {
		t.Fatalf("cancelled GenerateConstrained: %v, want aborted", status)
	}
}

// cutCtx is a context whose Err turns context.Canceled from its cut-th
// call on (never when cut is 0). It records which calls came from inside
// the PODEM search.
type cutCtx struct {
	context.Context
	calls, cut int
	inSearch   []int
}

func (c *cutCtx) Err() error {
	c.calls++
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, ".(*Generator).search") {
			c.inSearch = append(c.inSearch, c.calls)
			break
		}
		if !more {
			break
		}
	}
	if c.cut > 0 && c.calls >= c.cut {
		return context.Canceled
	}
	return nil
}

// TestNDetectCancelInsideSearch cuts an n-detect build inside a search —
// at a fixed count of context checks, so the cut lands at the same point
// on every run — and requires a clean stop: the context's error, an
// Incomplete set, and no fault marked Aborted (or counted in
// atpg_ndetect_saturated) that the uncut build does not give up too. The
// build passes no untestable list, so it also targets redundant faults,
// whose plain searches run past ctxCheckStride backtracks.
func TestNDetectCancelInsideSearch(t *testing.T) {
	nl := netlist.C432Class(1994)
	faults := fault.StuckAtUniverse(nl)
	base := gatesim.RandomPatterns(nl, 32, 1994)
	build := func(ctx context.Context, tr *obs.Tracer) (*TestSet, error) {
		return BuildNDetectTestSet(ctx, nl, faults, base, nil, 2, 2000, 1, tr)
	}

	probe := &cutCtx{Context: context.Background()}
	full, err := build(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.inSearch) == 0 {
		t.Fatal("no context check inside a search; the cut cannot land there")
	}
	for _, cut := range []int{probe.inSearch[0], probe.inSearch[len(probe.inSearch)/2]} {
		ctx := &cutCtx{Context: context.Background(), cut: cut}
		tr := obs.New()
		s, err := build(ctx, tr)
		if !errors.Is(err, context.Canceled) || s == nil || !s.Incomplete {
			t.Fatalf("cut at check %d: err %v, set %v; want context.Canceled and an Incomplete set", cut, err, s)
		}
		if !slices.Contains(ctx.inSearch, cut) {
			t.Fatalf("cut at check %d did not land inside a search", cut)
		}
		saturated := 0
		for i, ab := range s.Aborted {
			if !ab {
				continue
			}
			saturated++
			if !full.Aborted[i] {
				t.Errorf("cut at check %d: fault %v marked Aborted, but the uncut build does not give it up", cut, faults[i])
			}
		}
		if got := tr.Metrics().Counter("atpg_ndetect_saturated").Value(); got != int64(saturated) {
			t.Errorf("cut at check %d: atpg_ndetect_saturated = %d, want the %d Aborted faults", cut, got, saturated)
		}
	}
}
