package atpg

import (
	"context"

	"defectsim/internal/fault"
	"defectsim/internal/gatesim"
)

// Assign is a side constraint for constrained test generation: net must
// carry Value in the good circuit.
type Assign struct {
	Net   int
	Value V3
}

// GenerateConstrained builds a test for stuck-at fault f subject to
// additional good-circuit constraints — the primitive behind realistic
// (bridge) fault test generation: a wired bridge between nets A and B is
// excited exactly when the stronger net carries value s while the weaker
// carries ¬s, whereupon the weaker net behaves as stuck-at-s; that is a
// constrained stuck-at problem (constraint: strong net = s; target: weak
// net stuck-at-s). It runs GenerateCtx's search, context checks included,
// but records no metrics.
func (g *Generator) GenerateConstrained(ctx context.Context, f fault.StuckAt, constraints []Assign, backtrackLimit int) (gatesim.Pattern, Status) {
	pat, status, _ := g.search(ctx, f, constraints, backtrackLimit)
	return pat, status
}

// BridgeCandidates enumerates the constrained stuck-at problems whose
// solutions can detect a wired bridge between netlist nets a and b: for
// each direction (victim, aggressor) and each aggressor polarity s, the
// problem "victim stuck-at-s with aggressor constrained to s" excites and
// propagates the victim's flip. The caller tries candidates in order and
// verifies each generated pattern against the switch-level bridge model
// (which knows the actual drive strengths).
func BridgeCandidates(a, b int) []struct {
	Fault      fault.StuckAt
	Constraint Assign
} {
	type cand = struct {
		Fault      fault.StuckAt
		Constraint Assign
	}
	var out []cand
	for _, dir := range [][2]int{{a, b}, {b, a}} {
		victim, aggressor := dir[0], dir[1]
		for _, s := range []uint8{0, 1} {
			want := L0
			if s == 1 {
				want = L1
			}
			out = append(out, cand{
				Fault:      fault.StuckAt{Net: victim, Branch: -1, Value: s},
				Constraint: Assign{Net: aggressor, Value: want},
			})
		}
	}
	return out
}

// BridgePatterns returns the patterns worth verifying at switch level
// for the bridge between netlist nets a and b as a lazy sequence, in the
// shape of an iter.Seq: it solves the candidate formulations in order,
// one at a time as the consumer asks for the next pattern, and yields
// each new detecting pattern once. A consumer that stops at the first
// pattern it accepts leaves the later candidates unsolved. A candidate
// whose search the context cut short yields no pattern, so callers check
// the context afterwards.
func (g *Generator) BridgePatterns(ctx context.Context, a, b int, backtrackLimit int) func(yield func(gatesim.Pattern) bool) {
	return func(yield func(gatesim.Pattern) bool) {
		seen := map[string]bool{}
		for _, c := range BridgeCandidates(a, b) {
			pat, status := g.GenerateConstrained(ctx, c.Fault, []Assign{c.Constraint}, backtrackLimit)
			if status != StatusDetected || seen[string(pat)] {
				continue
			}
			seen[string(pat)] = true
			if !yield(pat) {
				return
			}
		}
	}
}

// GenerateBridge collects BridgePatterns: every candidate formulation of
// the bridge between netlist nets a and b is solved, and the distinct
// detecting patterns come back in candidate order.
func (g *Generator) GenerateBridge(ctx context.Context, a, b int, backtrackLimit int) []gatesim.Pattern {
	var out []gatesim.Pattern
	g.BridgePatterns(ctx, a, b, backtrackLimit)(func(pat gatesim.Pattern) bool {
		out = append(out, pat)
		return true
	})
	return out
}
