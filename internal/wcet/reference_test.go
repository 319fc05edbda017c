package wcet

import (
	"slices"
	"testing"

	"visa/internal/cfg"
	"visa/internal/memsys"
	"visa/internal/simple"
)

// The per-path reference for the tree walk: every path of a set is timed
// on its own engine from the phase's entry state, and a phase's result is
// the maximum. This is how the analyzer timed path sets before it walked
// them as prefix trees; CheckTreeWalk requires the walk to agree with it
// leaf by leaf.

// treePaths expands t into its paths, in leaf order, each as the indices
// of its steps in t.ops.
func treePaths(t *pathTree) [][]int32 {
	var out [][]int32
	var cur []int32
	for i, op := range t.ops {
		switch op.kind {
		case opStep:
			cur = append(cur, int32(i))
		case opLeaf:
			out = append(out, slices.Clone(cur))
		case opBack:
			cur = cur[:op.depth]
		}
	}
	return out
}

// refTimes times each path from a fresh engine in entry (a drained pipeline
// when nil).
func (a *Analyzer) refTimes(tb testing.TB, fg *cfg.FuncGraph, t *pathTree, paths [][]int32, pen int64, miss missFn, entry *simple.State, coldInner bool) []int64 {
	tb.Helper()
	var out []int64
	for _, p := range paths {
		u := a.engine(pen, miss)
		if entry != nil {
			u.eng.SetState(*entry)
		}
		if err := a.runPath(u.eng, fg, t.ops, p, pen, coldInner); err != nil {
			tb.Fatal(err)
		}
		out = append(out, u.eng.Now())
		a.release(u)
	}
	return out
}

// refSteady is loopSteady path by path: each path self-repeated four times
// from a fresh engine, the join of the normalized end states, and each path
// re-timed from the join.
func (a *Analyzer) refSteady(tb testing.TB, fg *cfg.FuncGraph, t *pathTree, body [][]int32, pen int64) (int64, simple.State) {
	tb.Helper()
	steady := int64(0)
	join := simple.State{}
	for _, p := range body {
		u := a.engine(pen, missSteady(a))
		prev := int64(0)
		for rep := 0; rep < 4; rep++ {
			if err := a.runPath(u.eng, fg, t.ops, p, pen, false); err != nil {
				tb.Fatal(err)
			}
			if rep > 0 {
				steady = max(steady, u.eng.Now()-prev)
			}
			prev = u.eng.Now()
		}
		join = join.Join(u.eng.State().Shifted(-u.eng.Now()))
		a.release(u)
	}
	for _, c := range a.refTimes(tb, fg, t, body, pen, missSteady(a), &join, false) {
		steady = max(steady, c)
	}
	return steady, join
}

// walkTimes returns each leaf's completion time from one tree walk.
func (a *Analyzer) walkTimes(tb testing.TB, fg *cfg.FuncGraph, t *pathTree, pen int64, miss missFn, entry *simple.State, coldInner bool) []int64 {
	tb.Helper()
	u := a.engine(pen, miss)
	defer a.release(u)
	if entry != nil {
		u.eng.SetState(*entry)
	}
	var out []int64
	if err := a.walk(u, fg, t, pen, coldInner, func() error {
		out = append(out, u.eng.Now())
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

// checkBranches fails when a path's conditional branch records a direction
// its successor on the path contradicts: the tree builder must not share a
// branch step between paths that leave it in different directions.
func checkBranches(tb testing.TB, fg *cfg.FuncGraph, what string, t *pathTree, paths [][]int32) {
	tb.Helper()
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			s, next := &t.ops[p[i]], &t.ops[p[i+1]]
			in := fg.Prog.Code[s.pc]
			if s.loop >= 0 || s.callee >= 0 || !in.Op.IsCondBranch() {
				continue
			}
			if s.taken != (int(next.pc) == int(in.Imm)) {
				tb.Fatalf("%s: branch at pc %d taken=%v but the path continues at pc %d", what, s.pc, s.taken, next.pc)
			}
		}
	}
}

// CheckTreeWalk times every phase of the analysis at the miss penalty of
// each frequency in freqs (each distinct penalty once) both ways, tree walk
// and per-path reference, and fails on any difference: every leaf's time,
// every phase's maximum, and each loop's joined steady state. The phases
// are the sub-task regions, every callee, and every loop's first iteration
// (cold and warm environment), steady state and exit.
func (a *Analyzer) CheckTreeWalk(tb testing.TB, freqs []int) {
	tb.Helper()
	var pens []int64
	for _, f := range freqs {
		pen := memsys.CyclesForNs(a.MemCfg.WorstLatNs, f)
		if !slices.Contains(pens, pen) {
			pens = append(pens, pen)
		}
	}
	name := a.Prog.Name
	compare := func(what string, pen int64, walked, ref []int64, got int64) {
		tb.Helper()
		if !slices.Equal(walked, ref) {
			tb.Fatalf("%s %s at penalty %d: tree walk leaves %v, per-path %v", name, what, pen, walked, ref)
		}
		want := int64(0)
		for _, c := range ref {
			want = max(want, c)
		}
		if got != want {
			tb.Fatalf("%s %s at penalty %d: phase result %d, per-path maximum %d", name, what, pen, got, want)
		}
	}
	// worst checks one phase that takes the longest path of t.
	worst := func(what string, fg *cfg.FuncGraph, t *pathTree, pen int64, miss missFn, entry *simple.State, coldInner bool, got int64) {
		tb.Helper()
		paths := treePaths(t)
		if len(paths) != t.leaves {
			tb.Fatalf("%s %s: %d leaves expand to %d paths", name, what, t.leaves, len(paths))
		}
		checkBranches(tb, fg, name+" "+what, t, paths)
		compare(what, pen, a.walkTimes(tb, fg, t, pen, miss, entry, coldInner),
			a.refTimes(tb, fg, t, paths, pen, miss, entry, coldInner), got)
	}
	must := func(v int64, err error) int64 {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}

	main := a.Graph.Funcs["main"]
	starts := a.Prog.Marks
	if len(starts) == 0 {
		starts = []int{main.Fn.Start}
	}
	for _, pen := range pens {
		for _, start := range starts {
			t, err := a.regionPaths(main, start, len(a.Prog.Marks) > 0)
			if err != nil {
				tb.Fatal(err)
			}
			miss := missAlwaysCold(a)
			worst("region", main, t, pen, miss, nil, true, must(a.worstPath(main, t, pen, miss)))
		}
		for _, fn := range a.Graph.CallOrder {
			fg := a.Graph.Funcs[fn]
			if fn != "main" {
				t, err := a.regionPaths(fg, fg.Fn.Start, false)
				if err != nil {
					tb.Fatal(err)
				}
				miss := missAlwaysCold(a)
				worst("callee "+fn, fg, t, pen, miss, nil, true, must(a.worstPath(fg, t, pen, miss)))
			}
			for _, l := range fg.Loops {
				pv, err := a.pathsOf(fg, l)
				if err != nil {
					tb.Fatal(err)
				}
				first := pv.body
				if l.Bound == 0 {
					first = pv.exit
				}
				for _, cold := range []bool{true, false} {
					miss := missFirstIter(a, fg, l, cold)
					worst("first iteration", fg, first, pen, miss, nil, true, must(a.worstPath(fg, first, pen, miss)))
				}
				if l.Bound == 0 {
					continue
				}
				steady, join, err := a.loopSteady(fg, pv.body, pen)
				if err != nil {
					tb.Fatal(err)
				}
				body := treePaths(pv.body)
				refSteady, refJoin := a.refSteady(tb, fg, pv.body, body, pen)
				if steady != refSteady || join != refJoin {
					tb.Fatalf("%s %s loop %d at penalty %d: steady %d, per-path %d (joins equal: %v)",
						name, fn, l.ID, pen, steady, refSteady, join == refJoin)
				}
				retimed := a.walkTimes(tb, fg, pv.body, pen, missSteady(a), &join, false)
				if want := a.refTimes(tb, fg, pv.body, body, pen, missSteady(a), &join, false); !slices.Equal(retimed, want) {
					tb.Fatalf("%s %s loop %d at penalty %d: re-timed leaves %v, per-path %v", name, fn, l.ID, pen, retimed, want)
				}
				worst("exit", fg, pv.exit, pen, missSteady(a), &join, false, must(a.loopExit(fg, pv.exit, pen, join)))
			}
		}
	}
}
