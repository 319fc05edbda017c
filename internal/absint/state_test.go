package absint

import (
	"math/rand"
	"testing"

	"visa/internal/isa"
)

// populated returns a state tracking n absolute and n frame cells.
func populated(n int) state {
	s := newState()
	for i := 0; i < n; i++ {
		s.setCell(absCell(int64(isa.DataBase)+int64(4*i)), Single(int32(i)))
		s.setCell(spCell(int64(-4*i)), Interval{int64(-i), int64(i)})
	}
	return s
}

// TestMemoryLookupsAllocFree pins the memory-domain reads the fixpoint
// runs on every block transfer to zero allocations.
func TestMemoryLookupsAllocFree(t *testing.T) {
	s := populated(200)
	o := s.clone()
	hit, miss := absCell(int64(isa.DataBase)+4*77), absCell(int64(isa.DataBase)+4*900)
	if got := s.getCell(hit); got != Single(77) {
		t.Errorf("getCell(hit) = %v, want [77,77]", got)
	}
	if got := s.getCell(miss); !got.IsFull() {
		t.Errorf("getCell(miss) = %v, want Top", got)
	}
	if n := testing.AllocsPerRun(100, func() { s.getCell(hit); s.getCell(miss) }); n != 0 {
		t.Errorf("getCell: %v allocs/op, want 0", n)
	}
	equal := false
	if n := testing.AllocsPerRun(100, func() { equal = s.eq(&o) }); n != 0 {
		t.Errorf("eq: %v allocs/op, want 0", n)
	}
	if !equal {
		t.Error("a clone is not eq to its source")
	}
}

// checkLayout fails unless s's paged memory is well formed and holds
// exactly the cells of m: pages sorted by key and non-empty, every cell on
// the page its key names, absent slots zero, and the cell count right.
func checkLayout(t *testing.T, step int, s *state, m map[cell]Interval) {
	t.Helper()
	if s.cells != len(m) {
		t.Fatalf("step %d: count says %d cells, model has %d", step, s.cells, len(m))
	}
	n := 0
	for i, e := range s.dir {
		if i > 0 && s.dir[i-1].k >= e.k {
			t.Fatalf("step %d: pages out of order at %d", step, i)
		}
		if e.k.pageKey() != e.k || e.p.set == 0 {
			t.Fatalf("step %d: page %d has key %d, set %#x", step, i, e.k, e.p.set)
		}
		for j, w := range e.p.cells {
			k := e.k + cell(j<<3)
			if k.pageKey() != e.k || k.slot() != j {
				t.Fatalf("step %d: cell %d does not map back to page %d slot %d", step, k, e.k, j)
			}
			if e.p.set&(1<<j) == 0 {
				if w != (word{}) {
					t.Fatalf("step %d: absent cell %d holds %v", step, k, w.val())
				}
				continue
			}
			n++
			if v, ok := m[k]; !ok || v != w.val() {
				t.Fatalf("step %d: cell %d = %v, model %v (present %v)", step, k, w.val(), v, ok)
			}
			if got := s.getCell(k); got != w.val() {
				t.Fatalf("step %d: getCell(%d) = %v, page holds %v", step, k, got, w.val())
			}
		}
	}
	if n != len(m) {
		t.Fatalf("step %d: %d cells on pages, model has %d", step, n, len(m))
	}
}

// TestMemoryMatchesMapModel drives random writes, havocs, joins and
// widenings through the paged copy-on-write memory and through a plain map
// model, and checks that every state agrees with its model — including
// states that shared pages with one that was later written. Keys span at
// least four pages of each keyspace; frame offsets cross zero and a page
// boundary below it.
func TestMemoryMatchesMapModel(t *testing.T) {
	type model map[cell]Interval
	r := rand.New(rand.NewSource(1))
	const span = 3 * 4 * pageCells // bytes: three pages plus a straddle
	absOff := func() int64 { return int64(isa.DataBase) - 64 + int64(4*r.Intn(span/4+32)) }
	spOff := func() int64 { return int64(4*r.Intn(span/4+32)) - span/2 - 64 }
	key := func() cell {
		if r.Intn(2) == 0 {
			return spCell(spOff())
		}
		return absCell(absOff())
	}
	val := func() Interval {
		if r.Intn(8) == 0 {
			return Full()
		}
		lo := int64(r.Intn(20) - 10)
		return Interval{lo, lo + int64(r.Intn(5))}
	}
	states := []state{newState()}
	models := []model{{}}
	for step := 0; step < 20000; step++ {
		i := r.Intn(len(states))
		s, m := &states[i], models[i]
		switch op := r.Intn(10); {
		case op < 5:
			k, v := key(), val()
			s.setCell(k, v)
			if v.IsFull() {
				delete(m, k)
			} else {
				m[k] = v
			}
		case op == 5:
			absLim, spLim := absOff(), spOff()
			keep := func(k cell) bool { return k.sp() || k.addr() < absLim }
			if r.Intn(2) == 0 {
				keep = func(k cell) bool { return !k.sp() || k.addr() > spLim }
			}
			s.dropCells(keep)
			for k := range m {
				if !keep(k) {
					delete(m, k)
				}
			}
		case op == 6 && len(states) < 16:
			states = append(states, s.clone())
			models = append(models, copyModel(m))
		case op >= 7:
			j := r.Intn(len(states))
			o, om := &states[j], models[j]
			f, res := Interval.Join, state{}
			if op == 9 {
				f, res = Interval.Widen, s.widenFrom(o)
			} else {
				res = s.join(o)
			}
			rm := model{}
			for k, v := range m {
				if ov, ok := om[k]; ok {
					if w := f(v, ov); !w.IsFull() {
						rm[k] = w
					}
				}
			}
			states[i], models[i] = res, rm
		}
		for j := range states {
			checkLayout(t, step, &states[j], models[j])
		}
	}
}

// TestMemoryCellCap checks the maxTrackedCells cap: at capacity a new cell
// reads Top while tracked cells still update, and the count stays exact
// through removal, dropCells and join, so freed room can be reused.
func TestMemoryCellCap(t *testing.T) {
	s := newState()
	m := map[cell]Interval{}
	at := func(i int) cell { return absCell(int64(isa.DataBase) + int64(4*i)) }
	for i := 0; i < maxTrackedCells; i++ {
		s.setCell(at(i), Single(int32(i)))
		m[at(i)] = Single(int32(i))
	}
	over := at(maxTrackedCells)
	s.setCell(over, Single(1))
	if got := s.getCell(over); !got.IsFull() {
		t.Fatalf("cell past the cap reads %v, want Top", got)
	}
	s.setCell(at(5), Single(-5))
	m[at(5)] = Single(-5)
	checkLayout(t, 0, &s, m)

	// Removing one cell frees room for exactly one new cell.
	s.setCell(at(7), Full())
	delete(m, at(7))
	s.setCell(over, Single(1))
	m[over] = Single(1)
	checkLayout(t, 1, &s, m)

	// dropCells frees a whole page and part of the next.
	lim := int64(isa.DataBase) + 4*(pageCells+3)
	s.dropCells(func(k cell) bool { return k.addr() >= lim })
	for k := range m {
		if k.addr() < lim {
			delete(m, k)
		}
	}
	checkLayout(t, 2, &s, m)

	// A join keeps the cells both sides share; its count admits new cells
	// up to the cap again.
	o := s.clone()
	o.setCell(at(pageCells+10), Single(99))
	j := s.join(&o)
	jm := copyModel(m)
	jm[at(pageCells+10)] = Interval{pageCells + 10, 99}
	checkLayout(t, 3, &j, jm)
	free := maxTrackedCells - j.cells
	for i := 0; i < free+1; i++ {
		k := absCell(int64(isa.DataBase) - 4*int64(i+1))
		j.setCell(k, Single(0))
		if i < free {
			jm[k] = Single(0)
		}
	}
	checkLayout(t, 4, &j, jm)
}

// TestMemoryEqualPagesByValue checks that eq compares pages by value:
// states built apart with the same writes are equal without sharing a
// page, and one differing cell makes them unequal.
func TestMemoryEqualPagesByValue(t *testing.T) {
	a, b := populated(100), populated(100)
	if a.dir[0].p == b.dir[0].p {
		t.Fatal("states built apart share a page")
	}
	if !a.eq(&b) || !b.eq(&a) {
		t.Fatal("equal states with distinct pages are not eq")
	}
	b.setCell(spCell(-4*50), Single(1000))
	if a.eq(&b) {
		t.Fatal("states differing in one cell are eq")
	}
	b.setCell(spCell(-4*50), Interval{-50, 50})
	if !a.eq(&b) {
		t.Fatal("restoring the cell did not make the states eq again")
	}
}

// TestSetCellCopiesOnePage pins the cost of a store into a clone: one page
// plus the directory, not every tracked cell (a flat 1,500-cell slice
// copies 24 KiB).
func TestSetCellCopiesOnePage(t *testing.T) {
	s := populated(750)
	if s.cells != 1500 {
		t.Fatalf("populated(750) tracks %d cells, want 1500", s.cells)
	}
	k := absCell(int64(isa.DataBase) + 4*300)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := s.clone()
			c.setCell(k, Single(int32(-i)))
		}
	})
	t.Logf("setCell on a clone: %d B/op", res.AllocedBytesPerOp())
	if got := res.AllocedBytesPerOp(); got > 2048 {
		t.Errorf("setCell on a clone of a 1500-cell state allocates %d B/op, want <= 2048", got)
	}
}

func copyModel(m map[cell]Interval) map[cell]Interval {
	c := make(map[cell]Interval, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
