package absint

import (
	"math/bits"
	"slices"

	"visa/internal/isa"
)

// Analysis limits. They bound work and map sizes; exceeding any of them
// degrades precision (toward Top / unknown bounds), never soundness.
const (
	widenDelay       = 2       // loop-header visits before widening kicks in
	spOffsetCap      = 1 << 20 // |tracked SP-relative offset| bound, bytes
	weakSpanCap      = 1 << 16 // widest ranged store walked cell-by-cell
	maxTrackedCells  = 1 << 13 // memory map size cap per state
	deriveIterCap    = 1 << 15 // max abstract iterations when deriving a bound
	deriveStepBudget = 1 << 21 // block transfers per loop-bound derivation
)

// cell names one tracked 32-bit memory word: either an absolute
// word-aligned byte address or a word-aligned offset from the function's
// entry stack pointer, packed as addr<<1 | sp. The two keyspaces never
// alias each other for the frame offsets we track: minic stacks live within
// spAliasWindow bytes of StackTop, far above any data-segment address.
type cell int64

func absCell(addr int64) cell { return cell(addr << 1) }
func spCell(off int64) cell   { return cell(off<<1 | 1) }

// sp reports whether the cell is a frame offset rather than an absolute
// address.
func (k cell) sp() bool { return k&1 != 0 }

// addr is the cell's byte address or frame offset.
func (k cell) addr() int64 { return int64(k) >> 1 }

// plus returns the cell d bytes further on in the same keyspace.
func (k cell) plus(d int64) cell { return k + cell(d<<1) }

// spAliasWindow is the stretch of address space below StackTop inside which
// an absolute access could alias a tracked stack cell (entry SP is at most
// StackTop and tracked offsets are at most spOffsetCap below it).
const spAliasWindow = int64(2 * spOffsetCap)

// origin records that a register currently holds exactly the concrete
// value of one memory cell (it was loaded from there and neither side has
// been written since). Branch refinement uses it to narrow loop counters
// that live in stack slots, not just the registers they pass through.
type origin struct {
	ok bool
	c  cell
}

// pageCells is the number of word cells on one memory page: a page covers
// one 128-byte span of one keyspace.
const pageCells = 32

// pageKey is the key of the page holding k: k with its word-in-page index
// (address bits 2-6, key bits 3-7) cleared. Cells are word-aligned, so
// key bits 1-2 are always clear.
func (k cell) pageKey() cell { return k &^ ((pageCells - 1) << 3) }

// slot is k's word index on its page.
func (k cell) slot() int { return int(k>>3) & (pageCells - 1) }

// word is one tracked cell's interval. A valid Interval lies inside int32,
// so the bounds are stored narrow.
type word struct{ lo, hi int32 }

func newWord(v Interval) word { return word{int32(v.Lo), int32(v.Hi)} }

func (w word) val() Interval { return Interval{int64(w.lo), int64(w.hi)} }

// page holds the tracked cells of one 128-byte span: bit j of set marks
// cells[j] present. Absent cells stay zero, so two pages compare as values.
// A page reachable from a state is never written; a write copies the page.
type page struct {
	set   uint32
	cells [pageCells]word
}

// pageRef is one directory entry: a page and its key.
type pageRef struct {
	k cell
	p *page
}

// state is the abstract machine state at one program point: an interval
// (plus SP-relative flag) per integer register and a partial map of memory
// cells. Absent cells are Top. The memory is a directory of non-empty pages
// sorted by key. States cloned from one another share the directory
// copy-on-write and share pages for good, so a store copies one page (and
// the directory, when shared) instead of every tracked cell.
type state struct {
	live   bool
	regs   [32]Val
	orig   [32]origin
	dir    []pageRef
	shared bool // dir is shared with another state
	cells  int  // tracked cells over all pages
}

func newState() state {
	s := state{live: true}
	for i := range s.regs {
		s.regs[i] = top()
	}
	s.regs[isa.RegZero] = single(0)
	return s
}

// clone returns a state sharing the memory directory copy-on-write.
func (s *state) clone() state {
	c := *s
	if c.dir != nil {
		c.shared = true
		s.shared = true
	}
	return c
}

// own gives s a private copy of a shared directory before a write.
func (s *state) own() {
	if !s.shared {
		return
	}
	s.dir = slices.Clone(s.dir)
	s.shared = false
}

func (s *state) getReg(r int) Val { return s.regs[r] }

// setReg overwrites a register with an unrelated value, severing any
// cell provenance. Refinement, which preserves the reg==cell identity,
// writes s.regs directly instead.
func (s *state) setReg(r int, v Val) {
	if r == isa.RegZero {
		return
	}
	s.regs[r] = v
	s.orig[r] = origin{}
}

func (s *state) clearOrigins() {
	s.orig = [32]origin{}
}

// refineReg narrows a register (and, through provenance, the memory cell it
// was loaded from) without severing the reg==cell identity: both sides keep
// the same concrete value, now known to lie in v.
func (s *state) refineReg(r int, v Val) {
	if r == isa.RegZero {
		return
	}
	s.regs[r] = v
	if o := s.orig[r]; o.ok && !v.SPRel {
		s.setCell(o.c, v.I)
	}
}

func (s *state) clearOriginsAt(k cell) {
	for i := range s.orig {
		if s.orig[i].ok && s.orig[i].c == k {
			s.orig[i] = origin{}
		}
	}
}

// findPage returns the index of page key k in the directory, or the index
// at which it would be inserted, and whether it is present.
//
//visa:hotpath
func (s *state) findPage(k cell) (int, bool) {
	lo, hi := 0, len(s.dir)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.dir[m].k < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.dir) && s.dir[lo].k == k
}

//visa:hotpath
func (s *state) getCell(k cell) Interval {
	if i, ok := s.findPage(k.pageKey()); ok {
		if p, j := s.dir[i].p, k.slot(); p.set&(1<<j) != 0 {
			return p.cells[j].val()
		}
	}
	return Full()
}

// setCell writes one cell. Writing the value the cell already holds is a
// no-op and so copies nothing.
func (s *state) setCell(k cell, v Interval) {
	pk, j := k.pageKey(), k.slot()
	i, found := s.findPage(pk)
	var old *page
	if found {
		old = s.dir[i].p
	}
	has := old != nil && old.set&(1<<j) != 0
	switch {
	case has && old.cells[j].val() == v:
		return
	case !has && (v.IsFull() || s.cells >= maxTrackedCells):
		return // Top is absent; at capacity new cells silently widen to Top
	case has && v.IsFull() && old.set == 1<<j:
		s.own()
		s.dir = slices.Delete(s.dir, i, i+1)
		s.cells--
		return
	}
	p := new(page)
	if found {
		*p = *old
	}
	switch {
	case v.IsFull():
		p.set &^= 1 << j
		p.cells[j] = word{}
		s.cells--
	case !has:
		p.set |= 1 << j
		s.cells++
		fallthrough
	default:
		p.cells[j] = newWord(v)
	}
	s.own()
	if found {
		s.dir[i].p = p
	} else {
		s.dir = slices.Insert(s.dir, i, pageRef{pk, p})
	}
}

// dropCells removes every tracked cell for which keep returns false.
func (s *state) dropCells(keep func(cell) bool) {
	var kept []pageRef
	changed := false
	for i, e := range s.dir {
		set := e.p.set
		for m := set; m != 0; m &= m - 1 {
			j := bits.TrailingZeros32(m)
			if !keep(e.k + cell(j<<3)) {
				set &^= 1 << j
			}
		}
		if set == e.p.set {
			if changed {
				kept = append(kept, e)
			}
			continue
		}
		if !changed {
			changed = true
			if s.shared {
				kept = append(make([]pageRef, 0, len(s.dir)), s.dir[:i]...)
			} else {
				kept = s.dir[:i] // filter in place: writes trail reads
			}
		}
		s.cells -= bits.OnesCount32(e.p.set &^ set)
		if set != 0 {
			p := new(page)
			p.set = set
			for m := set; m != 0; m &= m - 1 {
				j := bits.TrailingZeros32(m)
				p.cells[j] = e.p.cells[j]
			}
			kept = append(kept, pageRef{e.k, p})
		}
	}
	if !changed {
		return
	}
	if len(kept) == 0 {
		kept = nil
	}
	s.dir, s.shared = kept, false
}

// eq reports whether two states carry identical abstract information.
//
//visa:hotpath
func (s *state) eq(o *state) bool {
	if s.live != o.live {
		return false
	}
	if !s.live {
		return true
	}
	if s.regs != o.regs || s.orig != o.orig {
		return false
	}
	if s.cells != o.cells || len(s.dir) != len(o.dir) {
		return false
	}
	for i, a := range s.dir {
		b := o.dir[i]
		if a.k != b.k || a.p != b.p && *a.p != *b.p {
			return false
		}
	}
	return true
}

// sameDir reports whether two states hold the very same directory, so that
// a cell-wise join or widening of them is the directory itself.
func sameDir(a, b *state) bool {
	return len(a.dir) == len(b.dir) && (len(a.dir) == 0 || &a.dir[0] == &b.dir[0])
}

// mergeMem builds r's memory from the cells present in both a and b,
// combined by f; cells whose combination is Top are dropped. Identical
// directories and pages are shared instead, as f(v, v) == v for join and
// widening.
func mergeMem(r, a, b *state, f func(x, y Interval) Interval) {
	if sameDir(a, b) {
		if a.dir != nil {
			r.dir, r.cells = a.dir, a.cells
			r.shared, a.shared, b.shared = true, true, true
		}
		return
	}
	x, y := a.dir, b.dir
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0].k < y[0].k:
			x = x[1:]
		case x[0].k > y[0].k:
			y = y[1:]
		default:
			if p := mergePage(x[0].p, y[0].p, f); p != nil {
				if r.dir == nil {
					r.dir = make([]pageRef, 0, min(len(x), len(y)))
				}
				r.dir = append(r.dir, pageRef{x[0].k, p})
				r.cells += bits.OnesCount32(p.set)
			}
			x, y = x[1:], y[1:]
		}
	}
}

// mergePage combines the cells present on both pages by f, dropping those
// whose combination is Top. It returns nil for an empty result, and an
// operand itself when the result equals it.
func mergePage(a, b *page, f func(x, y Interval) Interval) *page {
	if a == b {
		return a
	}
	var p page
	for m := a.set & b.set; m != 0; m &= m - 1 {
		j := bits.TrailingZeros32(m)
		if v := f(a.cells[j].val(), b.cells[j].val()); !v.IsFull() {
			p.set |= 1 << j
			p.cells[j] = newWord(v)
		}
	}
	switch {
	case p.set == 0:
		return nil
	case p == *a:
		return a
	case p == *b:
		return b
	}
	np := new(page)
	*np = p
	return np
}

// join computes the least upper bound of two states. Memory keys surviving
// a join are the intersection of the operand key sets (absent means Top).
func (s *state) join(o *state) state {
	if !s.live {
		return o.clone()
	}
	if !o.live {
		return s.clone()
	}
	r := state{live: true}
	for i := range r.regs {
		r.regs[i] = s.regs[i].join(o.regs[i])
		if s.orig[i] == o.orig[i] {
			r.orig[i] = s.orig[i]
		}
	}
	mergeMem(&r, s, o, Interval.Join)
	return r
}

// widenFrom widens s (the previous iterate) with new, returning a state
// that is an upper bound of both and stabilizes ascending chains.
func (s *state) widenFrom(new *state) state {
	if !s.live {
		return new.clone()
	}
	if !new.live {
		return s.clone()
	}
	r := state{live: true}
	for i := range r.regs {
		r.regs[i] = s.regs[i].widen(new.regs[i])
		if s.orig[i] == new.orig[i] {
			r.orig[i] = s.orig[i]
		}
	}
	mergeMem(&r, s, new, Interval.Widen)
	return r
}
