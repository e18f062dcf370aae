package switchsim

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
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

// seedMemoCap is the capacity of a fault's own seed-group table, the
// first level in front of the campaign's class table: it catches a fault's
// repeats within one vector, before the table holds them. On the
// c432-class campaign 4 entries leave 34 244 relaxations, against 34 241
// at 16 and 40 723 at 1.
const seedMemoCap = 4

// Seed keys and results. A key packs 2 bits per key net into its low
// seedKeyBits bits and, in a fault's own table, the seed's index in the
// plan's seedCCCs above them; a result flags the own nets the solve
// changes in bits 32.. and holds their new values in bits 2i..2i+1, which
// leaves bits seedClassShift.. free for the class table's tag. Groups with
// wider keys, more own nets or more seeds relax every time.
const (
	seedKeyBits     = 58
	seedMaxOwn      = 16
	seedChangeShift = 32
	seedClassShift  = seedChangeShift + seedMaxOwn
	seedMaxClasses  = 1<<(64-seedClassShift) - 1
)

// seedMemo is one fault's table of seed-group relaxations: the CCCs
// hosting the fault relax on every solve, but a fault revisits few of
// their input states, so each relaxation is stored under its full key
// and replayed when the key recurs. A fault's plan and the campaign's
// bridge conductance are fixed, so a seed group's relaxation is a pure
// function of the start CCC and the values of the nets it reads. The
// table is private to the fault and overwritten round-robin (n counts
// the stores), so which solves hit depends only on that fault's own
// history and the class table — never on scheduling. class holds the
// seed class of each of the plan's seeds (-1: no class).
type seedMemo struct {
	n     int
	keys  [seedMemoCap]uint64
	res   [seedMemoCap]uint64
	class []int32
}

// solveSeed is solveCCC for seed CCC id (entry si of the plan's seedCCCs)
// on a machine carrying the fault's seed memo: the fault's own table
// first, then the campaign's class table, then the relaxation, whose
// result is staged for the class table.
func (m *Machine) solveSeed(si, id int, changed []int) []int {
	group := m.plan.group(si)
	key, ok := m.seedKey(group)
	if !ok || si >= 1<<(64-seedKeyBits) {
		m.relaxSolves++
		return m.relaxCCC(id, changed)
	}
	sm := m.seeds
	own := key | uint64(si)<<seedKeyBits
	for i, k := range sm.keys[:min(sm.n, seedMemoCap)] {
		if k == own {
			m.seedSolves++
			return m.replaySeed(group, sm.res[i], changed)
		}
	}
	cls := int32(-1)
	if si < len(sm.class) {
		cls = sm.class[si]
	}
	res, hit := m.classes.get(cls, key)
	if hit {
		m.classSolves++
		changed = m.replaySeed(group, res, changed)
	} else {
		m.relaxSolves++
		changed = m.relaxCCC(id, changed)
		res = m.seedResult(group, key)
		if cls >= 0 {
			m.fresh.put(cls, key, res)
		}
	}
	sm.keys[sm.n%seedMemoCap], sm.res[sm.n%seedMemoCap] = own, res
	sm.n++
	return changed
}

// groupOf returns the seed group of seed CCC id under the installed plan.
func (m *Machine) groupOf(id int) seedGroup {
	return m.plan.group(m.plan.seedIndex(id))
}

// seedKey packs the values of every net the relaxation of group reads:
// each group CCC's memo key nets (its own nets, then its device gates and
// non-rail external sources — devices the plan removes only add unread
// nets), then the bridge endpoints outside any CCC. Rails are constant and
// left out, as in the shared table. ok is false when the group does not
// fit a key or a result.
func (m *Machine) seedKey(group seedGroup) (key uint64, ok bool) {
	shift, own := 0, 0
	for _, g := range group.ids[:group.n] {
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
	if group.end >= 0 {
		if shift+2 > seedKeyBits {
			return 0, false
		}
		key |= uint64(m.val[group.end]) << shift
	}
	return key, true
}

// seedResult encodes the relaxation that just ran from the state key
// describes: the group's own nets in relaxation order, flagged where their
// value now differs from the key's.
func (m *Machine) seedResult(group seedGroup, key uint64) uint64 {
	var res uint64
	pos, shift := 0, 0
	for _, g := range group.ids[:group.n] {
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
func (m *Machine) replaySeed(group seedGroup, res uint64, changed []int) []int {
	pos := 0
	for _, g := range group.ids[:group.n] {
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

// Net references in a seed class's shape: the top byte says how the
// relaxation reads the net, the rest is a level, a local node index or a
// key slot.
const (
	refRail  = 1 << 24 // a rail: the low bit is its level
	refLocal = 2 << 24 // a node of the group: its index in relaxation order
	refSlot  = 3 << 24 // a net read by value: its position in the seed key
)

// seedShape appends to sig the shape of the relaxation solveSeed runs
// from seed CCC id under the installed plan: everything relaxCCC reads
// besides the values seedKey packs. Per group CCC, in discovery order,
// that is its key layout and, per device, whether the plan removes it,
// its type, conductance and terminals; then the bridge edges in the
// relaxation's order, duplicates included; then the forced nets with
// their levels. A terminal read by value is named by its key slot, one
// the relaxation wires into the group by its local index. The bridge
// conductance is the campaign's, and the rails are constant, so two seed
// groups of equal shape relax equal keys to equal results whatever
// instances they sit in. ok is false when the group has no key.
func (m *Machine) seedShape(id int, sig []byte) ([]byte, bool) {
	sg := m.groupOf(id)
	if _, ok := m.seedKey(sg); !ok {
		return sig, false
	}
	group := sg.ids[:sg.n]
	put := func(words ...uint32) {
		for _, w := range words {
			sig = binary.LittleEndian.AppendUint32(sig, w)
		}
	}
	// The group's nodes get their relaxation-order indices in the arena's
	// localIdx, as in relaxCCC, and give them back at the end.
	m.ensureScratch()
	local := m.scr.localIdx
	nodes := 0
	for _, g := range group {
		for _, n := range m.c.CCCs[g] {
			local[n] = int32(nodes)
			nodes++
		}
	}
	defer func() {
		for _, g := range group {
			for _, n := range m.c.CCCs[g] {
				local[n] = -1
			}
		}
	}()
	rail := func(n int) (uint32, bool) {
		switch n {
		case layout.NetGND:
			return refRail | uint32(V0), true
		case layout.NetVDD:
			return refRail | uint32(V1), true
		}
		return 0, false
	}
	put(uint32(len(group)))
	base := 0
	for _, g := range group {
		t := &m.memo.cccs[g]
		devs := m.c.DevsOf[g]
		put(uint32(t.own), uint32(len(t.in)), uint32(len(devs)))
		byValue := func(n int) uint32 {
			if r, ok := rail(n); ok {
				return r
			}
			return refSlot | uint32(base+slices.Index(t.in, int32(n)))
		}
		channel := func(n int) uint32 {
			if i := local[n]; i >= 0 {
				return refLocal | uint32(i)
			}
			return byValue(n)
		}
		for _, di := range devs {
			if m.plan.isRemoved(di) {
				put(0)
				continue
			}
			d := &m.c.Devices[di]
			gb := math.Float64bits(d.Conductance)
			put(1+uint32(d.Type), uint32(gb), uint32(gb>>32), byValue(d.Gate), channel(d.Source), channel(d.Drain))
		}
		base += len(t.in)
	}
	for _, g := range group {
		brs := m.plan.extraFor(g)
		put(uint32(len(brs)))
		for _, br := range brs {
			for _, n := range br {
				if i := local[n]; i >= 0 {
					put(refLocal | uint32(i))
				} else if r, ok := rail(n); ok {
					put(r)
				} else {
					put(refSlot | uint32(base))
					base++
				}
			}
		}
	}
	for _, f := range m.plan.forced {
		if i := local[f.net]; i >= 0 {
			put(refLocal|uint32(i), uint32(f.v))
		}
	}
	return sig, true
}

// seedClasses computes the seed classes of plans on one circuit and
// interns them in ids.
type seedClasses struct {
	m   *Machine // carries the circuit's CCC memo; plans are installed on it in turn
	ids *classIDs
	sig []byte
}

// newSeedClasses returns a class interner over c and its CCC memo that
// numbers classes in ids (nil: a private numbering).
func newSeedClasses(c *transistor.Circuit, memo *cccMemo, ids *classIDs) *seedClasses {
	if ids == nil {
		ids = &classIDs{}
	}
	sc := &seedClasses{m: NewMachine(c), ids: ids}
	sc.m.memo = memo
	return sc
}

// add appends the class of each of plan's seeds to out: -1 for a group
// without a key, or once seedMaxClasses classes exist.
func (sc *seedClasses) add(plan *faultPlan, out []int32) []int32 {
	sc.m.install(plan, 0, nil)
	for _, id := range plan.seedCCCs {
		var ok bool
		if sc.sig, ok = sc.m.seedShape(id, sc.sig[:0]); !ok {
			out = append(out, -1)
			continue
		}
		out = append(out, sc.ids.intern(sc.sig))
	}
	return out
}

// classIDs numbers seed classes: one id per distinct seedShape, in
// first-seen order, at most seedMaxClasses of them. A shape is a
// position pattern, not a set of nets, so one numbering serves every
// circuit; it is safe for concurrent use.
type classIDs struct {
	mu  sync.Mutex
	ids map[string]int32
}

// intern returns the id of the class shaped sig, numbering it if it is
// new (-1 once the ids run out).
func (ci *classIDs) intern(sig []byte) int32 {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if cls, seen := ci.ids[string(sig)]; seen {
		return cls
	}
	if len(ci.ids) >= seedMaxClasses {
		return -1
	}
	if ci.ids == nil {
		ci.ids = map[string]int32{}
	}
	cls := int32(len(ci.ids))
	ci.ids[string(sig)] = cls
	return cls
}

// len returns how many classes are numbered.
func (ci *classIDs) len() int {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	return len(ci.ids)
}

// seedTable is a campaign's class table: the seed relaxations of every
// fault, stored under (class, key) and replayed for any fault of the
// class that reaches the key. Workers only read it while they step a
// vector; the relaxations they run go to their machine's own staging
// table (Machine.fresh), and SimulateFaults moves those into the class
// table between vectors, so which solves hit never depends on worker
// count or scheduling. Open addressing with linear probing; an entry
// leaves only by take. base, when set, is a read-only table consulted
// after t's own entries: the one a Memo published before the campaign
// started.
type seedTable struct {
	slots []seedSlot // a power of two long, or empty
	shift uint       // 64 - log2(len(slots))
	n     int
	base  *seedTable
}

// seedSlot is one class-table entry: the seed key, and the seed result
// tagged with the class id + 1 in bits seedClassShift.. (res 0: empty).
type seedSlot struct{ key, res uint64 }

const seedTagMask = ^uint64(1<<seedClassShift - 1)

func (t *seedTable) home(key, tag uint64) int {
	return int((key ^ tag) * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the result stored for key in class cls, in t or the
// tables under it (nil table or cls < 0: none).
func (t *seedTable) get(cls int32, key uint64) (uint64, bool) {
	if cls < 0 {
		return 0, false
	}
	for ; t != nil; t = t.base {
		if res, ok := t.lookup(cls, key); ok {
			return res, true
		}
	}
	return 0, false
}

// lookup is get in t's own entries.
func (t *seedTable) lookup(cls int32, key uint64) (uint64, bool) {
	if t.n == 0 {
		return 0, false
	}
	tag := uint64(cls+1) << seedClassShift
	mask := len(t.slots) - 1
	for i := t.home(key, tag); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.res == 0 {
			return 0, false
		}
		if s.key == key && s.res&seedTagMask == tag {
			return s.res &^ tag, true
		}
	}
}

// put stores result res for key in class cls unless the table holds that
// (class, key) already: two relaxations of one class and key agree.
func (t *seedTable) put(cls int32, key, res uint64) {
	t.insert(seedSlot{key, res | uint64(cls+1)<<seedClassShift})
}

func (t *seedTable) insert(s seedSlot) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.resize(max(64, 2*len(old)))
		for _, o := range old {
			if o.res != 0 {
				t.insert(o)
			}
		}
	}
	tag := s.res & seedTagMask
	mask := len(t.slots) - 1
	for i := t.home(s.key, tag); ; i = (i + 1) & mask {
		switch e := t.slots[i]; {
		case e.res == 0:
			t.slots[i] = s
			t.n++
			return
		case e.key == s.key && e.res&seedTagMask == tag:
			return
		}
	}
}

// resize empties t into size slots, a power of two.
func (t *seedTable) resize(size int) {
	t.slots, t.shift, t.n = make([]seedSlot, size), uint(64-bits.TrailingZeros(uint(size))), 0
}

// take moves every entry of from into t and leaves from empty, its slots
// kept for the next vector.
func (t *seedTable) take(from *seedTable) {
	if from.n == 0 {
		return
	}
	for i, s := range from.slots {
		if s.res != 0 {
			t.insert(s)
			from.slots[i] = seedSlot{}
		}
	}
	from.n = 0
}

// merged returns a new table holding the own entries of a and b, sized
// once for both.
func merged(a, b *seedTable) *seedTable {
	size := 64
	for 4*(a.n+b.n) > 3*size {
		size *= 2
	}
	out := &seedTable{}
	out.resize(size)
	for _, t := range [...]*seedTable{a, b} {
		for _, s := range t.slots {
			if s.res != 0 {
				out.insert(s)
			}
		}
	}
	return out
}

// len returns how many entries t holds itself (nil t: 0).
func (t *seedTable) len() int {
	if t == nil {
		return 0
	}
	return t.n
}
