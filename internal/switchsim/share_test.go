package switchsim

import (
	"context"
	"errors"
	"testing"

	"defectsim/internal/fault"
	"defectsim/internal/obs"
)

// TestMemoCampaignsBitwiseIdentical: campaigns of the oracle circuits on
// one shared memo — without a design, building a design memo, on the
// built design, on a design memo of another fault list and at another
// conductance — return the private campaign's Result bit for bit at 1 and
// 2 workers, and only campaigns at the memo's conductance publish.
func TestMemoCampaignsBitwiseIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	shared := NewMemo(reg)
	entries := reg.Gauge("swsim_class_table_entries")
	for _, oc := range oracleCircuits() {
		if raceEnabled && oc.nl.Name == "random" {
			continue
		}
		list, c := buildCampaign(t, oc.nl)
		vecs := randomVectors(len(oc.nl.PIs), oc.vectors, 7)
		design := shared.Design(c, list)
		other := shared.Design(c, &fault.List{Faults: list.Faults})
		for _, g := range []float64{BridgeG, 1.5} {
			for _, w := range []int{1, 2} {
				want, err := SimulateFaults(context.Background(), c, list, vecs, w, g, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []*Memo{shared, design, design, other} {
					before := entries.Value()
					got, err := SimulateFaults(context.Background(), c, list, vecs, w, g, nil, m)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, oc.nl.Name, want, got)
					if g != BridgeG && entries.Value() != before {
						t.Fatalf("%s: a campaign at g=%g published into a memo for g=%g", oc.nl.Name, g, BridgeG)
					}
				}
			}
		}
		if design.design.plan.plans == nil || other.design.plan.plans != nil {
			t.Fatalf("%s: the design memo of the campaigns' list was not built, or another list's was", oc.nl.Name)
		}
	}
	if entries.Value() == 0 || reg.Gauge("swsim_seed_classes").Value() == 0 {
		t.Fatal("the memo's gauges were never set")
	}
}

// TestMemoCancelledBeforeAnyVector: a campaign on a fresh memo cancelled
// before its first vector publishes nothing and returns its partial
// result.
func TestMemoCancelledBeforeAnyVector(t *testing.T) {
	list, c := buildCampaign(t, oracleCircuits()[0].nl)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shared := NewMemo(nil)
	res, err := SimulateFaults(ctx, c, list, randomVectors(len(c.PIs), 4, 1), 1, BridgeG, nil, shared)
	if !errors.Is(err, context.Canceled) || res == nil || res.VectorsApplied != 0 {
		t.Fatalf("err = %v, result %v; want context.Canceled and a partial result", err, res)
	}
	if shared.classes.published() != nil {
		t.Fatal("a campaign that stepped no vector published a table")
	}
}

// TestMemoPublishCopyOnWrite pins the published table: the first
// campaign's table is published as is, a published table is never
// written again, a later campaign's entries land in a new table together
// with the published ones, every entry stays readable, and a campaign
// whose entries would pass classTableMaxEntries publishes none.
func TestMemoPublishCopyOnWrite(t *testing.T) {
	reg := obs.NewRegistry()
	cm := NewMemo(reg).classes
	entries := reg.Gauge("swsim_class_table_entries")
	next := uint64(0)
	campaign := func(n int) *seedTable {
		t := &seedTable{}
		for range n {
			t.put(int32(next%7), next, 1<<seedChangeShift)
			next++
		}
		return t
	}
	readable := func(n uint64) {
		t.Helper()
		tab := cm.published()
		for k := range n {
			if _, ok := tab.get(int32(k%7), k); !ok {
				t.Fatalf("entry %d of %d is not readable", k, n)
			}
		}
	}

	first := campaign(800)
	cm.publish(first)
	if cm.published() != first {
		t.Fatal("the first campaign's table was not published as is")
	}
	cm.publish(campaign(50))
	if top := cm.published(); top == first || top.base != nil || top.len() != 850 || first.len() != 800 {
		t.Fatal("a later publish did not copy the published table and the campaign's entries into a new table")
	}
	readable(next)
	if entries.Value() != 850 {
		t.Fatalf("swsim_class_table_entries = %v, want 850", entries.Value())
	}
	cm.publish(campaign(classTableMaxEntries - 850))
	if entries.Value() != classTableMaxEntries {
		t.Fatalf("swsim_class_table_entries = %v at the cap, want %d", entries.Value(), classTableMaxEntries)
	}
	readable(next)
	cm.publish(campaign(1))
	if entries.Value() != classTableMaxEntries {
		t.Fatal("a publish past the cap added entries")
	}
}
