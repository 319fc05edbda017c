package absint

import "visa/internal/cfg"

// deriveBound computes a sound upper bound on the number of back-edge
// traversals per entry of loop l, or -1 when no finite bound can be shown.
//
// The derivation abstractly executes the loop one iteration at a time: the
// header in-state for iteration k+1 is the join of the back-edge states
// produced by iteration k (inner loops are run to their own widened
// fixpoint inside each iteration). When the back-edge join first becomes
// unreachable in iteration k (counting from zero), the back edge can be
// traversed at most k times, matching the #bound annotation contract (max
// back-edge takes per loop entry). Counted loops converge
// because the abstract induction variable advances every iteration even
// when the entry state is wide.
func (fa *funcAnalysis) deriveBound(l *cfg.Loop) int {
	member := fa.inLoop[l.ID]
	var entry state
	if l.Header == fa.fg.Entry {
		entry = fa.entry.clone()
	}
	for _, p := range fa.fg.Blocks[l.Header].Preds {
		if member[p] {
			continue
		}
		st := fa.main.edge(fa.edgeID(p, l.Header))
		if st == nil || !st.live {
			continue
		}
		if !entry.live {
			entry = st.clone()
		} else {
			entry = entry.join(st)
		}
	}
	if !entry.live {
		return 0 // the loop is never entered
	}
	// With an annotation in place, the derived bound is only useful when it
	// undercuts the annotation (tightening) or modestly exceeds it (proving
	// the annotation understated). Iterating far past the annotation can
	// change neither verdict, so cap the work instead of burning the budget
	// on loops whose trip count is genuinely data-dependent.
	iterCap := deriveIterCap
	if l.Bound >= 0 && 2*l.Bound+64 < iterCap {
		iterCap = 2*l.Bound + 64
	}
	budget := deriveStepBudget
	cur := entry
	for k := 0; k < iterCap; k++ {
		back, ok := fa.iterateOnce(l, member, &cur, &budget)
		if !ok {
			return -1 // budget exhausted
		}
		if !back.live {
			return k // back edge dead after k traversals
		}
		if back.eq(&cur) {
			return -1 // no abstract progress: not provably counted
		}
		cur = back
	}
	return -1
}

// iterateOnce pushes one abstract iteration through the loop body: a scoped
// fixpoint over the member blocks with the header in-state pinned, back
// edges diverted into an accumulator instead of propagated, and loop exits
// discarded. Inner loop headers still widen, so nested loops cost one inner
// fixpoint per outer iteration, not a product.
func (fa *funcAnalysis) iterateOnce(l *cfg.Loop, member []bool, headerIn *state, budget *int) (state, bool) {
	fa.loop.reset()
	sc := scope{
		member:  member,
		entry:   l.Header,
		entrySt: headerIn,
		budget:  budget,
		flow:    &fa.loop,
	}
	ok := fa.run(&sc)
	return sc.back, ok
}
