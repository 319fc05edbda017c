package wcet

import (
	"fmt"
	"sort"

	"visa/internal/cfg"
	"visa/internal/isa"
)

// maxPaths bounds path enumeration per scope. WCET-style code keeps path
// counts small by construction; exceeding the cap is a hard error rather
// than a silent approximation.
const maxPaths = 16384

// treeOp is one element of a pathTree. An opStep is a concrete instruction
// (with its branch direction on this path), an inner-loop summary, or a
// callee summary; loop and call summaries are timed as drained-pipeline
// segments. The enumerator's stack holds opSteps only.
//
// A treeOp holds no pointers, so the GC never scans a tree's ops.
type treeOp struct {
	pc     int32 // opStep: instruction index
	loop   int32 // opStep: inner loop ID to summarize, or -1
	callee int32 // opStep: Analyzer.callees index of the function to summarize, or -1
	depth  int32 // opBack: the depth the next path branches off at
	kind   opKind
	taken  bool
	save   bool // opStep: a later opBack returns to the depth after this step
}

// opKind is what a treeOp asks the walker to do.
type opKind uint8

const (
	opStep opKind = iota // feed a step: the path goes one deeper
	opLeaf               // a path ends here
	opBack               // go back to depth, where the next path branches off
)

// pathTree is a path set stored as a prefix tree: paths that share a prefix
// share its steps. It is serialized in the depth-first order the enumerator
// visits it: each path's steps after the prefix it shares with the path
// before it, an opLeaf, and an opBack before the next path. The step an
// opBack returns past carries save, so a walker checkpoints exactly the
// states it will come back to.
type pathTree struct {
	ops    []treeOp
	leaves int // number of paths
}

// pathKind distinguishes how a path ends.
type pathKind uint8

const (
	pathBody   pathKind = iota // loop body: header back to a back edge
	pathExit                   // loop header/body to an exit edge
	pathRegion                 // region: start to next MARK / return / halt
)

// treeBuilder grows one pathTree from the enumerator's stack, copying only
// the steps a path does not share with the path added before it.
type treeBuilder struct {
	pathTree
	shared int     // leading stack steps equal to the last path added
	at     []int32 // at[d]: index in ops of the last path's step at depth d
}

// add appends stack as the tree's next path.
func (b *treeBuilder) add(stack []treeOp) {
	if b.leaves > 0 {
		b.ops = append(b.ops, treeOp{kind: opBack, depth: int32(b.shared)})
		if b.shared > 0 {
			b.ops[b.at[b.shared-1]].save = true
		}
	}
	b.at = b.at[:b.shared]
	for _, s := range stack[b.shared:] {
		b.at = append(b.at, int32(len(b.ops)))
		b.ops = append(b.ops, s)
	}
	b.ops = append(b.ops, treeOp{kind: opLeaf})
	b.leaves++
	b.shared = len(stack)
}

// tree returns the built tree, detached from the builder's scratch state.
func (b *treeBuilder) tree() *pathTree {
	t := b.pathTree
	return &t
}

// enumerator performs the DFS path walks, building one tree per path kind.
type enumerator struct {
	a      *Analyzer
	fg     *cfg.FuncGraph
	loop   *cfg.Loop // nil for function top level
	stop   func(pc int) bool
	prune  bool           // skip CFG edges the value analysis proved infeasible
	out    [3]treeBuilder // by pathKind
	leaves int
	stack  []treeOp
}

// deadSucc reports whether the edge from block bid to block sid should be
// pruned in this walk.
func (e *enumerator) deadSucc(bid, sid int) bool {
	return e.prune && e.a.deadEdge(e.fg.Fn.Name, bid, sid)
}

func (e *enumerator) emit(kind pathKind) error {
	if e.leaves >= maxPaths {
		return fmt.Errorf("wcet: %s: more than %d paths in one scope", e.fg.Fn.Name, maxPaths)
	}
	e.leaves++
	e.out[kind].add(e.stack)
	return nil
}

func (e *enumerator) push(s treeOp) { e.stack = append(e.stack, s) }

func (e *enumerator) popTo(n int) {
	e.stack = e.stack[:n]
	e.cut(n)
}

// setTaken records the branch direction of the top step. A changed step is
// no longer shared with any tree's last path.
func (e *enumerator) setTaken(taken bool) {
	n := len(e.stack) - 1
	if e.stack[n].taken != taken {
		e.stack[n].taken = taken
		e.cut(n)
	}
}

// cut limits every tree's shared prefix to the stack's first n steps.
func (e *enumerator) cut(n int) {
	for i := range e.out {
		e.out[i].shared = min(e.out[i].shared, n)
	}
}

// walkBlock appends block b's instructions starting at fromPC and recurses
// into successors. It returns an error only for structural problems.
func (e *enumerator) walkBlock(bid, fromPC int) error {
	b := e.fg.Blocks[bid]
	mark := len(e.stack)
	defer e.popTo(mark)

	prog := e.fg.Prog
	for pc := fromPC; pc < b.End; pc++ {
		if e.stop != nil && e.stop(pc) {
			// Region boundary: the next MARK starts the next sub-task.
			return e.emit(pathRegion)
		}
		e.push(treeOp{pc: int32(pc), loop: -1, callee: -1})
	}
	last := prog.Code[b.LastPC()]

	// Terminal instructions.
	if last.Op == isa.HALT || last.Op == isa.JR || last.Op == isa.JALR {
		if e.loop != nil {
			return e.emit(pathExit)
		}
		return e.emit(pathRegion)
	}

	// Calls: the callee runs between the JAL and the fall-through block.
	if b.CallTo != "" {
		e.setTaken(true) // the JAL itself
		e.push(treeOp{pc: int32(b.LastPC()), loop: -1, callee: e.a.calleeID(b.CallTo)})
		if len(b.Succs) == 0 {
			if e.loop != nil {
				return e.emit(pathExit)
			}
			return e.emit(pathRegion)
		}
		return e.follow(b.Succs[0], b)
	}

	if len(b.Succs) == 0 {
		if e.loop != nil {
			return e.emit(pathExit)
		}
		return e.emit(pathRegion)
	}

	for _, s := range b.Succs {
		if e.deadSucc(b.ID, s) {
			continue
		}
		// Record the branch direction this successor implies.
		if last.Op.IsCondBranch() {
			e.setTaken(e.fg.Blocks[s].Start == int(last.Imm))
		} else if last.Op == isa.J || last.Op == isa.JAL {
			e.setTaken(true)
		}
		if err := e.follow(s, b); err != nil {
			return err
		}
	}
	return nil
}

// follow continues the walk into successor block sid.
func (e *enumerator) follow(sid int, from *cfg.Block) error {
	mark := len(e.stack)
	defer e.popTo(mark)

	// Loop-context transitions.
	if e.loop != nil {
		if sid == e.loop.Header {
			return e.emit(pathBody) // back edge
		}
		if !e.loop.Blocks[sid] {
			return e.emit(pathExit)
		}
	}
	// Entering an inner loop?
	if inner := e.innerLoopAt(sid); inner != nil {
		e.push(treeOp{pc: int32(e.fg.Blocks[sid].Start), loop: int32(inner.ID), callee: -1})
		for _, t := range e.loopExitTargets(inner) {
			if e.loop != nil {
				if t == e.loop.Header {
					if err := e.emit(pathBody); err != nil {
						return err
					}
					continue
				}
				if !e.loop.Blocks[t] {
					if err := e.emit(pathExit); err != nil {
						return err
					}
					continue
				}
			}
			if err := e.walkBlock(t, e.fg.Blocks[t].Start); err != nil {
				return err
			}
		}
		return nil
	}
	return e.walkBlock(sid, e.fg.Blocks[sid].Start)
}

// innerLoopAt returns the loop headed at block sid that is an immediate
// sub-loop of the current context (or a top-level loop when the context is
// the function), if any.
func (e *enumerator) innerLoopAt(sid int) *cfg.Loop {
	var best *cfg.Loop
	for _, l := range e.fg.Loops {
		if l.Header != sid || l == e.loop {
			continue
		}
		if e.loop != nil && !e.loop.Blocks[sid] {
			continue
		}
		// Outermost loop headed here within the context.
		if best == nil || len(l.Blocks) > len(best.Blocks) {
			best = l
		}
	}
	return best
}

// loopExitTargets lists the distinct blocks execution can reach when loop l
// terminates, in deterministic order. Exit edges proved infeasible are
// skipped; if pruning removes every exit, the unpruned set is used so the
// walk never silently loses the continuation after an inner loop.
func (e *enumerator) loopExitTargets(l *cfg.Loop) []int {
	out := e.exitTargets(l, e.prune)
	if len(out) == 0 && e.prune {
		out = e.exitTargets(l, false)
	}
	return out
}

func (e *enumerator) exitTargets(l *cfg.Loop, prune bool) []int {
	// Walk the loop's blocks in sorted order: the returned target list
	// seeds path enumeration, which must be deterministic.
	bids := make([]int, 0, len(l.Blocks))
	for bid := range l.Blocks {
		bids = append(bids, bid)
	}
	sort.Ints(bids)
	seen := map[int]bool{}
	var out []int
	for _, bid := range bids {
		for _, s := range e.fg.Blocks[bid].Succs {
			if l.Blocks[s] || seen[s] {
				continue
			}
			if prune && e.a.deadEdge(e.fg.Fn.Name, bid, s) {
				continue
			}
			seen[s] = true
			out = append(out, s)
		}
	}
	sortInts(out)
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// loopPaths enumerates the body and exit paths of loop l, starting at its
// header. With value analysis, infeasible edges are pruned; if pruning
// leaves a path class empty that the timing model needs, the unpruned
// enumeration is used instead (sound, just looser).
func (a *Analyzer) loopPaths(fg *cfg.FuncGraph, l *cfg.Loop) (loopTrees, error) {
	v, err := a.enumLoop(fg, l, a.valueRep != nil)
	if err != nil {
		return loopTrees{}, err
	}
	if a.valueRep != nil && (v.body.leaves == 0 || v.exit.leaves == 0) {
		if v, err = a.enumLoop(fg, l, false); err != nil {
			return loopTrees{}, err
		}
	}
	if v.body.leaves == 0 {
		hb := fg.Blocks[l.Header]
		return loopTrees{}, fmt.Errorf("wcet: %s: loop at pc %d has no body path", fg.Fn.Name, hb.Start)
	}
	return v, nil
}

func (a *Analyzer) enumLoop(fg *cfg.FuncGraph, l *cfg.Loop, prune bool) (loopTrees, error) {
	e := &enumerator{a: a, fg: fg, loop: l, prune: prune}
	hb := fg.Blocks[l.Header]
	if err := e.walkBlock(l.Header, hb.Start); err != nil {
		return loopTrees{}, err
	}
	if e.out[pathRegion].leaves > 0 {
		return loopTrees{}, fmt.Errorf("wcet: %s: sub-task MARK inside a loop is not supported", fg.Fn.Name)
	}
	return loopTrees{body: e.out[pathBody].tree(), exit: e.out[pathExit].tree()}, nil
}

// regionPaths enumerates paths from startPC to the next MARK boundary (when
// stopAtMarks), a return, or a halt, at the top level of the function.
// Pruning falls back to the unpruned walk if it leaves the region with no
// path at all. The set does not depend on the operating point, so it is
// enumerated once per analyzer.
func (a *Analyzer) regionPaths(fg *cfg.FuncGraph, startPC int, stopAtMarks bool) (*pathTree, error) {
	key := regionKey{fg.Fn.Name, startPC, stopAtMarks}
	if t, ok := a.regionMemo[key]; ok {
		return t, nil
	}
	var stop func(int) bool
	if stopAtMarks {
		stop = func(pc int) bool {
			return pc != startPC && fg.Prog.Code[pc].Op == isa.MARK
		}
	}
	walk := func(prune bool) (*pathTree, error) {
		e := &enumerator{a: a, fg: fg, stop: stop, prune: prune}
		b := fg.BlockAt(startPC)
		if err := e.walkBlock(b.ID, startPC); err != nil {
			return nil, err
		}
		return e.out[pathRegion].tree(), nil
	}
	t, err := walk(a.valueRep != nil)
	if err == nil && t.leaves == 0 && a.valueRep != nil {
		t, err = walk(false)
	}
	if err != nil {
		return nil, err
	}
	a.regionMemo[key] = t
	return t, nil
}
