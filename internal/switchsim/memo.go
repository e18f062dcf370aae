package switchsim

import (
	"math/bits"
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

// table returns the memo table serving CCC id on m, or nil when the solve
// must relax: no memo, a CCC hosting part of the installed fault (planFault
// puts every removed device, forced net and bridge attachment into a seed
// CCC, so every other CCC is plan-free), or a CCC over the width limit.
func (m *Machine) table(id int) *memoCCC {
	if m.memo == nil || (m.plan != nil && m.plan.isSeed(id)) {
		return nil
	}
	if t := &m.memo.cccs[id]; t.in != nil {
		return t
	}
	return nil
}

// solveTable is solveCCC for a plan-free CCC: it replays the memo entry
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
