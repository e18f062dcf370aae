package switchsim

import (
	"sync"

	"defectsim/internal/fault"
	"defectsim/internal/obs"
	"defectsim/internal/transistor"
)

// classTableMaxEntries caps the entries a Memo publishes: a campaign
// whose entries would pass it keeps them to itself. At 16 B a slot and a
// load of at most 3/4, a full published table takes at most 4 MiB.
const classTableMaxEntries = 1 << 17

// Memo is the switch-level state fault campaigns share beyond one
// SimulateFaults call. A seed class names positions in a gate shape, not
// nets (DESIGN §12), so a seed relaxation stored under (class, key) holds
// in every circuit built from the same library at the same bridge
// conductance: the memo keeps one numbering of seed classes and one class
// table, and every campaign at BridgeG starts from the entries
// earlier campaigns published and publishes what it adds when it ends. A
// memo made by Design also keeps one design's campaign set-up — its fault
// plans and verdicts, their seed classes and the CCC memo tables — built
// by the first campaign on that design and shared read-only by the later
// ones. Results are bitwise identical with and without a memo; only the
// split of swsim_ccc_solves between "class" and "relax" moves. Safe for
// concurrent use.
type Memo struct {
	classes *classMemo
	design  *designMemo // nil: campaigns plan their faults themselves
}

// NewMemo returns an empty memo for campaigns at BridgeG; campaigns at
// any other conductance keep a private table. reg, when non-nil, receives
// the swsim_class_table_entries and swsim_seed_classes gauges, set
// whenever a campaign publishes.
func NewMemo(reg *obs.Registry) *Memo {
	return &Memo{classes: &classMemo{
		entries: reg.Gauge("swsim_class_table_entries"),
		count:   reg.Gauge("swsim_seed_classes"),
	}}
}

// Design returns a memo sharing m's seed classes and class table that
// also keeps the campaign set-up of circuit c with fault list list, both
// read-only from now on. Campaigns on any other circuit or list plan
// their faults themselves.
func (m *Memo) Design(c *transistor.Circuit, list *fault.List) *Memo {
	return &Memo{classes: m.classes, design: &designMemo{c: c, list: list}}
}

// classMemo is a Memo's server-wide part: the seed-class numbering and
// the published class table. Campaigns read the published table without
// a lock, and a table once published is never written again: publishing
// replaces it under mu with a copy that also holds the campaign's
// entries. The first campaign's table is published as is.
type classMemo struct {
	ids classIDs

	mu    sync.Mutex
	table *seedTable // nil: empty

	entries, count *obs.Gauge
}

// published returns the class table campaigns start from (nil: empty).
func (cm *classMemo) published() *seedTable {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.table
}

// publish adds the entries of a campaign's own table t, unless the
// published entries would then pass classTableMaxEntries.
func (cm *classMemo) publish(t *seedTable) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if t.len() == 0 || cm.table.len()+t.len() > classTableMaxEntries {
		return
	}
	if cm.table == nil {
		// Nothing was published when t's campaign started either, so t
		// has no base.
		cm.table = t
	} else {
		cm.table = merged(cm.table, t)
	}
	cm.entries.Set(float64(cm.table.len()))
	cm.count.Set(float64(cm.ids.len()))
}

// designMemo is the campaign set-up of one design, built once.
type designMemo struct {
	c    *transistor.Circuit
	list *fault.List
	once sync.Once
	plan campaignPlan
}

// campaignPlan is what a campaign derives from its circuit and fault list
// alone: the faults' plans and verdicts, the seed classes of the
// simulated faults' seeds, fault by fault, and the circuit's CCC memo.
type campaignPlan struct {
	plans    []faultPlan
	verdicts []Verdict
	class    []int32
	ccc      *cccMemo
}

// planCampaign plans every fault of list on c and numbers their seed
// classes in ids.
func planCampaign(c *transistor.Circuit, list *fault.List, ids *classIDs) campaignPlan {
	ccc := newCCCMemo(c)
	plans, verdicts := planFaults(c, list.Faults)
	shapes := newSeedClasses(c, ccc, ids)
	var class []int32
	for i := range plans {
		if verdicts[i] == VerdictSimulate {
			class = shapes.add(&plans[i], class)
		}
	}
	return campaignPlan{plans, verdicts, class, ccc}
}

// campaignSetup is a campaign's set-up: its plan, the published class table
// it starts from and the memo it publishes to (nil: a private table).
type campaignSetup struct {
	campaignPlan
	base  *seedTable
	share *classMemo
}

// setup returns the set-up of a campaign of list on c at bridgeG: from
// the memo at BridgeG (and, for a design memo, on its circuit and list),
// planned privately otherwise. A nil memo plans privately.
func (m *Memo) setup(c *transistor.Circuit, list *fault.List, bridgeG float64) campaignSetup {
	if m == nil || bridgeG != BridgeG {
		return campaignSetup{campaignPlan: planCampaign(c, list, nil)}
	}
	cm := m.classes
	if d := m.design; d != nil && d.c == c && d.list == list {
		d.once.Do(func() { d.plan = planCampaign(c, list, &cm.ids) })
		return campaignSetup{d.plan, cm.published(), cm}
	}
	return campaignSetup{planCampaign(c, list, &cm.ids), cm.published(), cm}
}
