package switchsim

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"defectsim/internal/cell"
	"defectsim/internal/layout"
	"defectsim/internal/transistor"
)

// memoMaxNets is the widest CCC the memo tabulates: a MaxFanin-input
// static-CMOS stage reads MaxFanin gate nets and owns MaxFanin nets (its
// output plus the series-stack nodes), so every library stage fits, at
// 3^8 = 6561 entries for the widest. Wider CCCs (none from the library)
// keep the relaxation.
const memoMaxNets = 2 * cell.MaxFanin

// Memo entry layout: bit 31 marks a filled entry, bits 16..23 flag which
// own nets the solve changes, and bits 2i..2i+1 hold own net i's new value.
const (
	memoFilled      = 1 << 31
	memoChangeShift = 16
)

// cccMemo is a fault campaign's compiled-CCC table (the observation behind
// COSMOS): a plan-free CCC's solve is a pure function of the 0/1/X values
// of the few nets its relaxation reads, so each solve is computed once by
// the relaxation and replayed from the table afterwards. One memo is
// shared by the campaign's good machine and every fault machine; entries
// are filled on first use with atomic stores, and concurrent fills of one
// entry store the same value.
type cccMemo struct {
	cccs []memoCCC // indexed by CCC id
}

// memoCCC is one CCC's table. in lists the key nets: the CCC's own nets
// in CCC order (the first own entries), then its device gate nets and its
// non-rail external source/drain nets. Rails are constant, so they are
// not part of the key. in is nil for a CCC wider than memoMaxNets.
type memoCCC struct {
	own int
	in  []int32
	tab []atomic.Uint32 // 3^len(in) entries, index Σ val(in[j])·3^j
}

// newCCCMemo builds the empty tables for every CCC of c that fits the
// width limit.
func newCCCMemo(c *transistor.Circuit) *cccMemo {
	memo := &cccMemo{cccs: make([]memoCCC, len(c.CCCs))}
	size := 0
	for id, nets := range c.CCCs {
		in := make([]int32, 0, memoMaxNets)
		add := func(n int) {
			if n == layout.NetGND || n == layout.NetVDD {
				return
			}
			for _, x := range in {
				if int(x) == n {
					return
				}
			}
			in = append(in, int32(n))
		}
		for _, n := range nets {
			add(n)
		}
		for _, di := range c.DevsOf[id] {
			d := &c.Devices[di]
			add(d.Gate)
			add(d.Source)
			add(d.Drain)
		}
		if len(in) > memoMaxNets {
			continue
		}
		memo.cccs[id] = memoCCC{own: len(nets), in: in}
		size += pow3(len(in))
	}
	tab := make([]atomic.Uint32, size)
	off := 0
	for id := range memo.cccs {
		t := &memo.cccs[id]
		if t.in == nil {
			continue
		}
		n := pow3(len(t.in))
		t.tab = tab[off : off+n : off+n]
		off += n
	}
	return memo
}

func pow3(k int) int {
	n := 1
	for ; k > 0; k-- {
		n *= 3
	}
	return n
}

// solveTable is solveCCC for a plan-free CCC (one hosting no part of the
// installed fault: planFault puts every removed device, forced net and
// bridge attachment into a seed CCC): it replays the memo entry
// for the current values of the key nets, filling it by the relaxation on
// first use. Changed nets come back in CCC net order, exactly as the
// relaxation appends them.
func (m *Machine) solveTable(t *memoCCC, id int, changed []int) []int {
	idx := 0
	for j := len(t.in) - 1; j >= 0; j-- {
		idx = idx*3 + int(m.val[t.in[j]])
	}
	own := t.in[:t.own]
	e := t.tab[idx].Load()
	if e == 0 {
		changed = m.relaxCCC(id, changed)
		e = memoFilled
		prev := idx
		for i, net := range own {
			nv := m.val[net]
			if int(nv) != prev%3 {
				e |= 1 << (memoChangeShift + i)
			}
			prev /= 3
			e |= uint32(nv) << (2 * i)
		}
		t.tab[idx].Store(e)
		return changed
	}
	for mask := (e >> memoChangeShift) & 0xff; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros32(mask)
		net := int(own[i])
		m.val[net] = Val(e>>(2*i)) & 3
		changed = append(changed, net)
	}
	return changed
}

// seedMemoCap is the capacity of a fault's seed-group table. A fault
// re-solves few distinct seed states: on the c432-class campaign 78% of
// seed solves hit a 16-entry table, 82% a 32-entry one.
const seedMemoCap = 16

// Seed keys and results. A key packs 2 bits per key net into its low
// seedKeyBits bits and the seed's index in the plan's seedCCCs above them;
// a result flags the own nets the solve changes in bits 32.. and holds
// their new values in bits 2i..2i+1. Groups with wider keys, more own nets
// or more seeds relax every time.
const (
	seedKeyBits     = 58
	seedMaxOwn      = 16
	seedChangeShift = 32
)

// seedMemo is one fault's table of seed-group relaxations: the CCCs
// hosting the fault relax on every solve, but a fault revisits few of
// their input states, so each relaxation is stored under its full key
// and replayed when the key recurs. A fault's plan and the campaign's
// bridge conductance are fixed, so a seed group's relaxation is a pure
// function of the start CCC and the values of the nets it reads. The
// table is private to the fault and cleared when full, so which solves
// hit depends only on that fault's own history — never on scheduling.
type seedMemo struct {
	n    int
	keys [seedMemoCap]uint64
	res  [seedMemoCap]uint64
}

// solveSeed is solveCCC for seed CCC id (entry si of the plan's seedCCCs)
// on a machine carrying the fault's seed memo.
func (m *Machine) solveSeed(si, id int, changed []int) []int {
	group := m.seedGroup(id)
	key, ok := m.seedKey(group)
	if !ok || si >= 1<<(64-seedKeyBits) {
		m.relaxSolves++
		return m.relaxCCC(id, changed)
	}
	key |= uint64(si) << seedKeyBits
	sm := m.seeds
	for i, k := range sm.keys[:sm.n] {
		if k == key {
			m.seedSolves++
			return m.replaySeed(group, sm.res[i], changed)
		}
	}
	m.relaxSolves++
	changed = m.relaxCCC(id, changed)
	if sm.n == seedMemoCap {
		sm.n = 0
	}
	sm.keys[sm.n], sm.res[sm.n] = key, m.seedResult(group, key)
	sm.n++
	return changed
}

// seedGroup lists the CCCs relaxCCC solves together when it starts at id
// — id, then the CCCs the plan's bridges reach, transitively — in the
// relaxation's discovery order.
func (m *Machine) seedGroup(id int) []int {
	g := append(m.scr.seeds[:0], id)
	for i := 0; i < len(g); i++ {
		for _, br := range m.plan.extraFor(g[i]) {
			for _, n := range br {
				if oc := m.cccOfNet(n); oc >= 0 && !slices.Contains(g, oc) {
					g = append(g, oc)
				}
			}
		}
	}
	m.scr.seeds = g
	return g
}

// seedKey packs the values of every net the relaxation of group reads:
// each group CCC's memo key nets (its own nets, then its device gates and
// non-rail external sources — devices the plan removes only add unread
// nets), then the bridge endpoints outside any CCC. Rails are constant and
// left out, as in the shared table. ok is false when the group does not
// fit a key or a result.
func (m *Machine) seedKey(group []int) (key uint64, ok bool) {
	shift, own := 0, 0
	for _, g := range group {
		t := &m.memo.cccs[g]
		if t.in == nil || shift+2*len(t.in) > seedKeyBits {
			return 0, false
		}
		for _, n := range t.in {
			key |= uint64(m.val[n]) << shift
			shift += 2
		}
		own += t.own
	}
	if own > seedMaxOwn {
		return 0, false
	}
	for _, g := range group {
		for _, br := range m.plan.extraFor(g) {
			for _, n := range br {
				if m.cccOfNet(n) >= 0 || n == layout.NetGND || n == layout.NetVDD {
					continue
				}
				if shift+2 > seedKeyBits {
					return 0, false
				}
				key |= uint64(m.val[n]) << shift
				shift += 2
			}
		}
	}
	return key, true
}

// seedResult encodes the relaxation that just ran from the state key
// describes: the group's own nets in relaxation order, flagged where their
// value now differs from the key's.
func (m *Machine) seedResult(group []int, key uint64) uint64 {
	var res uint64
	pos, shift := 0, 0
	for _, g := range group {
		t := &m.memo.cccs[g]
		for i, n := range t.in[:t.own] {
			if nv := m.val[n]; uint64(nv) != key>>(shift+2*i)&3 {
				res |= 1<<(seedChangeShift+pos) | uint64(nv)<<(2*pos)
			}
			pos++
		}
		shift += 2 * len(t.in)
	}
	return res
}

// replaySeed applies a stored seed result, appending the changed nets in
// the order relaxCCC appends them: group CCC order, then CCC net order.
func (m *Machine) replaySeed(group []int, res uint64, changed []int) []int {
	pos := 0
	for _, g := range group {
		t := &m.memo.cccs[g]
		for _, n := range t.in[:t.own] {
			if res>>(seedChangeShift+pos)&1 != 0 {
				m.val[n] = Val(res>>(2*pos)) & 3
				changed = append(changed, int(n))
			}
			pos++
		}
	}
	return changed
}
