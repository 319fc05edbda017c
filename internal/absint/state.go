package absint

import "visa/internal/isa"

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

// memEntry is one tracked cell and its interval. A valid Interval lies
// inside int32, so the bounds are stored narrow to keep entries at 16 bytes.
type memEntry struct {
	k      cell
	lo, hi int32
}

func newEntry(k cell, v Interval) memEntry { return memEntry{k, int32(v.Lo), int32(v.Hi)} }

func (e memEntry) val() Interval { return Interval{int64(e.lo), int64(e.hi)} }

// state is the abstract machine state at one program point: an interval
// (plus SP-relative flag) per integer register and a partial map of memory
// cells, held as a slice sorted by cell key. Absent cells are Top. The
// memory slice is shared copy-on-write between states cloned from one
// another.
type state struct {
	live   bool
	regs   [32]Val
	orig   [32]origin
	mem    []memEntry
	shared bool
}

func newState() state {
	s := state{live: true}
	for i := range s.regs {
		s.regs[i] = top()
	}
	s.regs[isa.RegZero] = single(0)
	return s
}

// clone returns a state sharing the memory slice copy-on-write.
func (s *state) clone() state {
	c := *s
	if c.mem != nil {
		c.shared = true
		s.shared = true
	}
	return c
}

// own gives s a private copy of a shared memory slice before a write.
func (s *state) own() {
	if !s.shared {
		return
	}
	s.mem = append([]memEntry(nil), s.mem...)
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

// find returns the index of k in the sorted memory slice, or the index at
// which it would be inserted, and whether it is present.
//
//visa:hotpath
func (s *state) find(k cell) (int, bool) {
	lo, hi := 0, len(s.mem)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.mem[m].k < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.mem) && s.mem[lo].k == k
}

//visa:hotpath
func (s *state) getCell(k cell) Interval {
	if i, ok := s.find(k); ok {
		return s.mem[i].val()
	}
	return Full()
}

// setCell writes one cell. Writing the value the cell already holds is a
// no-op and so never copies a shared slice.
func (s *state) setCell(k cell, v Interval) {
	i, found := s.find(k)
	switch {
	case found && s.mem[i].val() == v:
		return
	case found && v.IsFull():
		s.own()
		s.mem = append(s.mem[:i], s.mem[i+1:]...)
	case found:
		s.own()
		s.mem[i] = newEntry(k, v)
	case v.IsFull(), len(s.mem) >= maxTrackedCells:
		return // Top is absent; at capacity new cells silently widen to Top
	default:
		s.own()
		s.mem = append(s.mem, memEntry{})
		copy(s.mem[i+1:], s.mem[i:])
		s.mem[i] = newEntry(k, v)
	}
}

// dropCells removes every tracked cell for which keep returns false.
func (s *state) dropCells(keep func(cell) bool) {
	i := 0
	for i < len(s.mem) && keep(s.mem[i].k) {
		i++
	}
	if i == len(s.mem) {
		return
	}
	s.own()
	kept := s.mem[:i]
	for _, e := range s.mem[i+1:] {
		if keep(e.k) {
			kept = append(kept, e)
		}
	}
	s.mem = kept
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
	if len(s.mem) != len(o.mem) {
		return false
	}
	for i := range s.mem {
		if s.mem[i] != o.mem[i] {
			return false
		}
	}
	return true
}

// sameMem reports whether two states hold the very same memory slice, so
// that a cell-wise join or widening of them is the slice itself.
func sameMem(a, b *state) bool {
	return len(a.mem) == len(b.mem) && (len(a.mem) == 0 || &a.mem[0] == &b.mem[0])
}

// mergeMem builds r's memory from the cells present in both a and b,
// combined by f; cells whose combination is Top are dropped. Identical
// slices are shared instead, as f(v, v) == v for join and widening.
func mergeMem(r, a, b *state, f func(x, y Interval) Interval) {
	if sameMem(a, b) {
		if a.mem != nil {
			r.mem = a.mem
			r.shared, a.shared, b.shared = true, true, true
		}
		return
	}
	x, y := a.mem, b.mem
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0].k < y[0].k:
			x = x[1:]
		case x[0].k > y[0].k:
			y = y[1:]
		default:
			if v := f(x[0].val(), y[0].val()); !v.IsFull() {
				if r.mem == nil {
					r.mem = make([]memEntry, 0, min(len(x), len(y)))
				}
				r.mem = append(r.mem, newEntry(x[0].k, v))
			}
			x, y = x[1:], y[1:]
		}
	}
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
