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

// TestMemoryMatchesMapModel drives random writes, havocs, joins and
// widenings through the sorted copy-on-write memory and through a plain
// map model, and checks that every state agrees with its model — including
// states that shared a slice with one that was later written.
func TestMemoryMatchesMapModel(t *testing.T) {
	type model map[cell]Interval
	r := rand.New(rand.NewSource(1))
	key := func() cell {
		off := int64(4 * r.Intn(24))
		if r.Intn(2) == 0 {
			return spCell(-off)
		}
		return absCell(int64(isa.DataBase) + off)
	}
	val := func() Interval {
		if r.Intn(8) == 0 {
			return Full()
		}
		lo := int64(r.Intn(20) - 10)
		return Interval{lo, lo + int64(r.Intn(5))}
	}
	check := func(step int, s *state, m model) {
		t.Helper()
		if len(s.mem) != len(m) {
			t.Fatalf("step %d: %d cells, model has %d", step, len(s.mem), len(m))
		}
		for i, e := range s.mem {
			if i > 0 && s.mem[i-1].k >= e.k {
				t.Fatalf("step %d: cells out of order at %d", step, i)
			}
			if v, ok := m[e.k]; !ok || v != e.val() {
				t.Fatalf("step %d: cell %d = %v, model %v (present %v)", step, e.k, e.val(), v, ok)
			}
		}
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
			lim := int64(4 * r.Intn(24))
			keep := func(k cell) bool { return k.sp() || k.addr() < int64(isa.DataBase)+lim }
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
			check(step, &states[j], models[j])
		}
	}
}

func copyModel(m map[cell]Interval) map[cell]Interval {
	c := make(map[cell]Interval, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
