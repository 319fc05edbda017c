package absint

import (
	"visa/internal/cfg"
	"visa/internal/isa"
)

type argAcc struct {
	seen bool
	vals [4]Val
}

type analyzer struct {
	g       *cfg.Graph
	prog    *isa.Program
	argJoin map[string]*argAcc
	dataEnd int64 // first byte past the initialized data segment
}

// funcAnalysis carries the per-function fixpoint over the full CFG; the
// bound-derivation pass reuses its transfer function through scoped runs.
// It belongs to one Analyze call, so its scratch is never shared between
// goroutines.
type funcAnalysis struct {
	an       *analyzer
	fg       *cfg.FuncGraph
	entry    state
	isHeader []bool
	inLoop   [][]bool // loop ID -> block membership
	edgeBase []int    // block ID -> dense ID of its first out-edge

	main  flow       // full-graph fixpoint results
	loop  flow       // scratch for bound derivation, reset by every iteration
	outs  [2]edgeOut // transfer's successor states
	nOuts int

	// Worklist scratch, reset by every run.
	visits []int
	dirty  []bool

	rec *FuncReport // non-nil only during the record pass
}

// flow holds one worklist run's solution: the in-state per block and the
// out-state per CFG edge, by dense edge ID. A set edge whose state is not
// live was proven infeasible.
type flow struct {
	in      []state
	inSet   []bool
	edges   []state
	edgeSet []bool
}

func newFlow(blocks, edges int) flow {
	return flow{
		in:      make([]state, blocks),
		inSet:   make([]bool, blocks),
		edges:   make([]state, edges),
		edgeSet: make([]bool, edges),
	}
}

// reset forgets the solution. Stale states stay in place but are never
// read again, as every read checks the set flags first.
func (f *flow) reset() {
	clear(f.inSet)
	clear(f.edgeSet)
}

// edge returns the out-state of one edge, or nil when nothing has reached
// it yet.
func (f *flow) edge(id int) *state {
	if !f.edgeSet[id] {
		return nil
	}
	return &f.edges[id]
}

// edgeOut is one successor state emitted by transfer; a state that is not
// live marks a direction proven infeasible.
type edgeOut struct {
	to int
	st state
}

// Analyze runs the interval analysis over every function of the graph.
// Functions are visited callers-first so call-site argument values seed
// callee entry states. Loop #bound annotations are not consulted; the
// graph may come from cfg.BuildWithOptions with AllowMissingBounds.
func Analyze(g *cfg.Graph) *Report {
	an := &analyzer{
		g:       g,
		prog:    g.Prog,
		argJoin: map[string]*argAcc{},
		dataEnd: int64(isa.DataBase) + int64(len(g.Prog.Data)),
	}
	rep := &Report{Funcs: make(map[string]*FuncReport, len(g.Funcs))}
	// CallOrder lists callees first; walk it backwards for callers-first.
	for i := len(g.CallOrder) - 1; i >= 0; i-- {
		name := g.CallOrder[i]
		rep.Funcs[name] = an.analyzeFunc(g.Funcs[name])
	}
	return rep
}

func (an *analyzer) analyzeFunc(fg *cfg.FuncGraph) *FuncReport {
	n := len(fg.Blocks)
	fa := &funcAnalysis{
		an:       an,
		fg:       fg,
		entry:    an.entryState(fg.Fn.Name),
		isHeader: make([]bool, n),
		inLoop:   make([][]bool, len(fg.Loops)),
		edgeBase: make([]int, n),
		visits:   make([]int, n),
		dirty:    make([]bool, n),
	}
	nEdges := 0
	for _, b := range fg.Blocks {
		fa.edgeBase[b.ID] = nEdges
		nEdges += len(b.Succs)
	}
	fa.main = newFlow(n, nEdges)
	if len(fg.Loops) > 0 {
		fa.loop = newFlow(n, nEdges)
	}
	for _, l := range fg.Loops {
		fa.isHeader[l.Header] = true
		member := make([]bool, n)
		for bid := range l.Blocks {
			member[bid] = true
		}
		fa.inLoop[l.ID] = member
	}

	fa.fixpoint()
	fa.narrow()

	rep := &FuncReport{
		Name:      fg.Fn.Name,
		Reachable: make([]bool, n),
		DeadEdges: map[Edge]bool{},
		LoopBound: make(map[int]int, len(fg.Loops)),
		Writes:    map[int]Val{},
		Addrs:     map[int]Access{},
	}
	fa.record(rep)
	for _, l := range fg.Loops {
		rep.LoopBound[l.ID] = fa.deriveBound(l)
	}
	return rep
}

// entryState is the abstract state at function entry: SP is the symbolic
// frame base, r0 is zero, argument registers come from the join over all
// analyzed call sites, and everything else (including all memory) is Top.
func (an *analyzer) entryState(fnName string) state {
	st := newState()
	st.regs[isa.RegSP] = Val{I: Single(0), SPRel: true}
	if acc, ok := an.argJoin[fnName]; ok && acc.seen {
		for i, v := range acc.vals {
			st.regs[isa.RegArg0+i] = v
		}
	}
	return st
}

// edgeID maps a CFG edge to its dense ID: the position of its first
// occurrence among the source block's successors.
func (fa *funcAnalysis) edgeID(from, to int) int {
	succs := fa.fg.Blocks[from].Succs
	for j, s := range succs {
		if s == to {
			return fa.edgeBase[from] + j
		}
	}
	panic("absint: edge not in CFG")
}

// scope parameterizes one worklist run: the full function graph for the
// main fixpoint, or one iteration of a single loop body for bound
// derivation.
type scope struct {
	// member restricts the run to a loop body; nil runs the whole graph.
	// A member scope pins the in-state of its entry (the loop header) to
	// entrySt, joins edges into the header into back, and drops loop
	// exits.
	member []bool
	entry  int
	// entrySt contributes to (member == nil) or replaces (member != nil)
	// the in-state of the entry block.
	entrySt *state
	budget  *int // nil = unlimited; counts block transfers
	flow    *flow
	back    state
}

func (sc *scope) include(bid int) bool { return sc.member == nil || sc.member[bid] }

// widenAt reports whether bid is a widening point: any loop header other
// than a pinned entry.
func (fa *funcAnalysis) widenAt(sc *scope, bid int) bool {
	return fa.isHeader[bid] && (sc.member == nil || bid != sc.entry)
}

// joinIn computes a block's in-state from incoming edges (and the scope
// entry contribution). live=false means the block is unreachable.
func (fa *funcAnalysis) joinIn(sc *scope, bid int) state {
	if sc.member != nil && bid == sc.entry {
		return sc.entrySt.clone()
	}
	var acc state
	if bid == sc.entry && sc.entrySt != nil {
		acc = sc.entrySt.clone()
	}
	for _, p := range fa.fg.Blocks[bid].Preds {
		if !sc.include(p) {
			continue
		}
		st := sc.flow.edge(fa.edgeID(p, bid))
		if st == nil || !st.live {
			continue
		}
		if !acc.live {
			acc = st.clone()
		} else {
			acc = acc.join(st)
		}
	}
	return acc
}

// run drives a worklist to fixpoint inside the scope. When a run overstays
// its welcome every block becomes a widening point, which forces strictly
// ascending in-states and hence termination. Returns false only when the
// scope budget is exhausted.
func (fa *funcAnalysis) run(sc *scope) bool {
	n := len(fa.fg.Blocks)
	f := sc.flow
	visits, dirty := fa.visits, fa.dirty
	clear(visits)
	clear(dirty)
	dirty[sc.entry] = true
	steps, softCap := 0, 256*(n+4)
	widenAll := false
	for {
		progressed := false
		for bid := 0; bid < n; bid++ {
			if !dirty[bid] || !sc.include(bid) {
				dirty[bid] = false
				continue
			}
			dirty[bid] = false
			in := fa.joinIn(sc, bid)
			if !in.live {
				continue
			}
			if widenAll || fa.widenAt(sc, bid) {
				visits[bid]++
				if f.inSet[bid] && (widenAll || visits[bid] > widenDelay) {
					in = f.in[bid].widenFrom(&in)
				}
			}
			if f.inSet[bid] && f.in[bid].eq(&in) {
				continue
			}
			f.in[bid] = in
			f.inSet[bid] = true
			if sc.budget != nil {
				if *sc.budget <= 0 {
					return false
				}
				*sc.budget--
			}
			steps++
			work := in.clone()
			fa.transfer(bid, &work)
			for i := 0; i < fa.nOuts; i++ {
				o := &fa.outs[i]
				if sc.member != nil {
					if o.to == sc.entry {
						// A back edge: its state feeds the next iteration.
						if o.st.live {
							if !sc.back.live {
								sc.back = o.st.clone()
							} else {
								sc.back = sc.back.join(&o.st)
							}
						}
						continue
					}
					if !sc.member[o.to] {
						continue // loop exit: not this iteration's concern
					}
				}
				id := fa.edgeID(bid, o.to)
				if f.edgeSet[id] && f.edges[id].eq(&o.st) {
					continue
				}
				f.edges[id] = o.st
				f.edgeSet[id] = true
				dirty[o.to] = true
				progressed = true
			}
		}
		if !progressed {
			return true
		}
		if steps > softCap {
			widenAll = true
		}
	}
}

func (fa *funcAnalysis) mainScope() *scope {
	return &scope{entry: fa.fg.Entry, entrySt: &fa.entry, flow: &fa.main}
}

func (fa *funcAnalysis) fixpoint() {
	fa.run(fa.mainScope())
}

// narrow refines the post-widening solution with three decreasing sweeps.
// Each sweep recomputes every in-state and out-edge from scratch; a single
// application of the sound transfer to a sound assignment stays sound, so
// no fixpoint property is needed for the result to be safe. Three sweeps
// let a refinement at a loop header travel header -> body -> back-edge and
// land back at the header.
func (fa *funcAnalysis) narrow() {
	sc := fa.mainScope()
	f := &fa.main
	n := len(fa.fg.Blocks)
	for round := 0; round < 3; round++ {
		for bid := 0; bid < n; bid++ {
			in := fa.joinIn(sc, bid)
			f.in[bid] = in
			f.inSet[bid] = true
			if !in.live {
				continue
			}
			work := in.clone()
			fa.transfer(bid, &work)
			for i := 0; i < fa.nOuts; i++ {
				id := fa.edgeID(bid, fa.outs[i].to)
				f.edges[id] = fa.outs[i].st
				f.edgeSet[id] = true
			}
		}
	}
}

// record replays each reachable block once against its final in-state,
// capturing per-pc written values, access address ranges, call-site
// arguments, and the edges proven infeasible.
func (fa *funcAnalysis) record(rep *FuncReport) {
	fa.rec = rep
	for bid := range fa.fg.Blocks {
		in := fa.main.in[bid]
		if !in.live {
			continue
		}
		rep.Reachable[bid] = true
		work := in.clone()
		fa.transfer(bid, &work)
	}
	fa.rec = nil
	for _, b := range fa.fg.Blocks {
		if !rep.Reachable[b.ID] {
			continue
		}
		for _, s := range b.Succs {
			if st := fa.main.edge(fa.edgeID(b.ID, s)); st != nil && !st.live {
				rep.DeadEdges[Edge{From: b.ID, To: s}] = true
			}
		}
	}
}

// emit appends one successor state to fa.outs.
func (fa *funcAnalysis) emit(to int, st state) {
	fa.outs[fa.nOuts] = edgeOut{to: to, st: st}
	fa.nOuts++
}

// transfer interprets one basic block and leaves in fa.outs an abstract
// state (not live for a proven-infeasible direction) per unique successor.
func (fa *funcAnalysis) transfer(bid int, st *state) {
	fa.nOuts = 0
	b := fa.fg.Blocks[bid]
	prog := fa.an.prog
	for pc := b.Start; pc < b.End-1; pc++ {
		fa.step(st, pc)
	}
	lastPC := b.End - 1
	last := prog.Code[lastPC]
	switch {
	case last.Op.BranchCond() != isa.CondNone:
		// Succs order mirrors cfg.buildFunc: taken target first, then the
		// fallthrough (when present). A branch targeting its own
		// fallthrough yields two entries for one block; joining per
		// target keeps both directions covered.
		for i, s := range b.Succs {
			es := fa.refineEdge(st, last, i == 0)
			if i == 1 && s == fa.outs[0].to {
				if cur := &fa.outs[0].st; !cur.live {
					*cur = es
				} else if es.live {
					*cur = cur.join(&es)
				}
				continue
			}
			fa.emit(s, es)
		}
		// Emit in ascending target order so the fixpoint worklist — and
		// with it widening decisions and diagnostic order — is
		// deterministic.
		if fa.nOuts == 2 && fa.outs[1].to < fa.outs[0].to {
			fa.outs[0], fa.outs[1] = fa.outs[1], fa.outs[0]
		}
	case last.Op == isa.JAL:
		fa.step(st, lastPC)
		fa.postCall(st, b.CallTo)
		for _, s := range b.Succs {
			fa.emit(s, st.clone())
		}
	case last.Op == isa.J:
		for _, s := range b.Succs {
			fa.emit(s, st.clone())
		}
	case last.Op == isa.JR || last.Op == isa.JALR || last.Op == isa.HALT:
		fa.step(st, lastPC) // JALR writes a link register
	default:
		// Block ended at a leader boundary; the last instruction is plain.
		fa.step(st, lastPC)
		for _, s := range b.Succs {
			fa.emit(s, st.clone())
		}
	}
}

// refineEdge narrows the operand registers of a conditional branch along
// one direction. A direction proven infeasible yields a state that is not
// live.
func (fa *funcAnalysis) refineEdge(st *state, inst isa.Inst, taken bool) state {
	c := inst.Op.BranchCond()
	if !taken {
		c = c.Negated()
	}
	rs, rt := int(inst.Rs), int(inst.Rt)
	if rs == rt {
		// Identical operands: EQ/GE always hold, NE/LT never do.
		if c == isa.CondEQ || c == isa.CondGE {
			return st.clone()
		}
		return state{}
	}
	a, b := st.getReg(rs), st.getReg(rt)
	if a.SPRel != b.SPRel {
		return st.clone() // incomparable bases: nothing to refine
	}
	if holds, known := decide(c, a.I, b.I); known && !holds {
		return state{}
	}
	na, nb, ok := refine(c, a.I, b.I)
	if !ok {
		return state{}
	}
	out := st.clone()
	out.refineReg(rs, Val{I: na, SPRel: a.SPRel})
	out.refineReg(rt, Val{I: nb, SPRel: b.SPRel})
	return out
}

// postCall applies the call-boundary contract after a JAL: the callee (and
// its transitive callees) may write any global and any stack slot below the
// caller's current SP, and clobbers every register except r0, SP and FP
// (the mini-C ABI restores SP exactly and preserves FP via save/restore).
func (fa *funcAnalysis) postCall(st *state, callee string) {
	if fa.rec != nil && callee != "" {
		acc := fa.an.argJoin[callee]
		if acc == nil {
			acc = &argAcc{}
			fa.an.argJoin[callee] = acc
		}
		for i := 0; i < 4; i++ {
			v := st.getReg(isa.RegArg0 + i)
			if v.SPRel {
				v = top() // caller frame base is meaningless in the callee
			}
			if acc.seen {
				acc.vals[i] = acc.vals[i].join(v)
			} else {
				acc.vals[i] = v
			}
		}
		acc.seen = true
	}
	sp := st.getReg(isa.RegSP)
	spKnown := sp.SPRel
	for r := 1; r < 32; r++ {
		if r == isa.RegSP || r == isa.RegFP {
			continue
		}
		st.regs[r] = top()
	}
	st.clearOrigins()
	st.dropCells(func(k cell) bool {
		return k.sp() && spKnown && k.addr() >= sp.I.Hi
	})
}
