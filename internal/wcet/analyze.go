package wcet

import (
	"fmt"

	"visa/internal/absint"
	"visa/internal/cache"
	"visa/internal/cfg"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/simple"
)

// Analyzer holds the per-program analysis state: control flow, loop bounds,
// caching categorizations, and memoized scope summaries. Its memos:
//
//   - pathsMemo and regionMemo: the path trees of every loop, sub-task
//     region and function, enumerated once per analyzer (they do not
//     depend on the operating point);
//   - sumMemo and fnMemo: loop and function totals per miss penalty;
//   - partMemo: the penalty-invariant parts of loop totals, shared by all
//     operating points.
type Analyzer struct {
	Prog  *isa.Program
	Graph *cfg.Graph
	Cats  []ICat

	CacheCfg      cache.Config
	MemCfg        memsys.Config
	SnippetCycles int64

	dcPad []int64 // worst-case D-cache misses per sub-task (profile pad)

	// staticDC selects the integrated static data-cache analysis (see
	// dcache.go); when the data working set does not fit, every data
	// reference is simulated as a miss.
	staticDC     bool
	staticDCFits bool

	// valueRep, when non-nil, carries the abstract-interpretation results
	// (value.go): path enumeration prunes statically dead edges and the
	// static D-cache analysis uses proven access ranges.
	valueRep *absint.Report

	// callees names the functions path trees summarize; a treeOp holds an
	// index into it, not the name.
	callees []string

	pathsMemo  map[loopKey]loopTrees
	regionMemo map[regionKey]*pathTree
	sumMemo    map[sumKey]summary
	fnMemo     map[fnKey]int64

	// partMemo holds the parts of loop summaries that are the same at every
	// operating point, so a table build simulates them once instead of once
	// per frequency. The miss penalty reaches a phase only through
	// Pipeline.Feed's miss path (a penBus read) and through nested
	// summaries, so a part whose computation left penReads unchanged is
	// penalty-invariant. penReads is a plain counter: an analyzer is
	// single-threaded, and phases nest, so an enclosing phase sees every read
	// its nested phases make.
	partMemo map[partKey]*loopParts
	penReads int64

	// engPool recycles simulation engines across phases. A full analysis
	// times hundreds of thousands of path phases, and building a fresh
	// pipeline + categorization cache for each one dominated the allocation
	// profile of every experiment that computes WCET tables. The pool is a
	// stack because phases nest: loopTotal holds an engine while the paths
	// it times recurse into inner-loop and callee summaries that need their
	// own.
	engPool []*engUnit
}

type loopKey struct {
	fn string
	id int
}

type loopTrees struct {
	body *pathTree
	exit *pathTree
}

// regionKey names a region path set: fn's top level from start to the next
// MARK (when marks), a return, or a halt.
type regionKey struct {
	fn    string
	start int
	marks bool
}

type sumKey struct {
	fn   string
	loop int
	pen  int64
	cold bool
}

// summary is a memoized loop total; penDep records whether computing it
// read the miss penalty, so a hit can pass that dependence on to the
// enclosing phase.
type summary struct {
	cycles int64
	penDep bool
}

// partKey is sumKey without the penalty.
type partKey struct {
	fn   string
	loop int
	cold bool
}

// loopParts memoizes the penalty-invariant parts of one loop summary. A
// part is recorded only when computing it made no penalty read.
type loopParts struct {
	first, steady, exit int64
	join                simple.State // entry state of the exit paths
	haveFirst           bool
	haveSteady          bool
	haveExit            bool
}

type fnKey struct {
	fn  string
	pen int64
}

// Result is the analysis output for one frequency.
type Result struct {
	FMHz     int
	Penalty  int64   // cache-miss penalty in cycles at FMHz
	SubTasks []int64 // WCET in cycles per sub-task (includes D-cache pad)
	Total    int64   // sum over sub-tasks
}

// New builds an analyzer for prog with the paper's cache and memory
// parameters (Table 1).
func New(prog *isa.Program) (*Analyzer, error) {
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	return newFromGraph(prog, g)
}

// newFromGraph finishes analyzer construction from an already-built graph
// (New and NewWithValueAnalysis differ only in how the graph is prepared).
func newFromGraph(prog *isa.Program, g *cfg.Graph) (*Analyzer, error) {
	a := &Analyzer{
		Prog:          prog,
		Graph:         g,
		CacheCfg:      cache.VISAL1,
		MemCfg:        memsys.Default,
		SnippetCycles: simple.DefaultSnippetCycles,
		dcPad:         make([]int64, maxInt(prog.NumSubTasks(), 1)),
		pathsMemo:     map[loopKey]loopTrees{},
		regionMemo:    map[regionKey]*pathTree{},
		sumMemo:       map[sumKey]summary{},
		fnMemo:        map[fnKey]int64{},
		partMemo:      map[partKey]*loopParts{},
	}
	a.Cats = categorize(g, a.CacheCfg)

	// Sub-task markers must sit at the top level of main: checkpoints are a
	// straight-line protocol (paper §2).
	if len(prog.Marks) > 0 {
		mainFG := g.Funcs["main"]
		if mainFG == nil {
			return nil, fmt.Errorf("wcet: %s: sub-task markers but no main", prog.Name)
		}
		for i, pc := range prog.Marks {
			if b := mainFG.BlockAt(pc); b.Loop != -1 {
				return nil, fmt.Errorf("wcet: %s: sub-task %d marker inside a loop", prog.Name, i)
			}
		}
	}
	return a, nil
}

// SetDCachePad installs the per-sub-task worst-case data-cache miss counts
// obtained from profiling (the paper pads WCET with trace-derived D-cache
// miss information, §3.3). Each miss is charged the full memory latency.
func (a *Analyzer) SetDCachePad(misses []int64) error {
	if len(misses) != len(a.dcPad) {
		return fmt.Errorf("wcet: pad for %d sub-tasks, program has %d", len(misses), len(a.dcPad))
	}
	copy(a.dcPad, misses)
	return nil
}

// calleeID returns name's index in a.callees, adding it on first use.
func (a *Analyzer) calleeID(name string) int32 {
	for i, n := range a.callees {
		if n == name {
			return int32(i)
		}
	}
	a.callees = append(a.callees, name)
	return int32(len(a.callees) - 1)
}

// Analyze computes per-sub-task WCETs in cycles at fMHz.
func (a *Analyzer) Analyze(fMHz int) (*Result, error) {
	pen := memsys.CyclesForNs(a.MemCfg.WorstLatNs, fMHz)
	res := &Result{FMHz: fMHz, Penalty: pen}

	main := a.Graph.Funcs["main"]
	if main == nil {
		return nil, fmt.Errorf("wcet: %s has no main", a.Prog.Name)
	}
	starts := a.Prog.Marks
	if len(starts) == 0 {
		starts = []int{main.Fn.Start} // whole task as one region
	}
	for i, start := range starts {
		paths, err := a.regionPaths(main, start, len(a.Prog.Marks) > 0)
		if err != nil {
			return nil, err
		}
		worst, err := a.worstPath(main, paths, pen, missAlwaysCold(a))
		if err != nil {
			return nil, err
		}
		worst += a.dcPad[min(i, len(a.dcPad)-1)] * pen
		res.SubTasks = append(res.SubTasks, worst)
		res.Total += worst
	}
	return res, nil
}

// --- charging predicates ---

// missFn decides whether the first touch of pc's block misses in the
// current simulation phase.
type missFn func(pc int) bool

// missAlwaysCold charges every first touch as a miss: used for sub-task
// regions and function summaries, which are analyzed cold (the safe
// assumption after a mode switch or at task start).
func missAlwaysCold(a *Analyzer) missFn {
	return func(pc int) bool { return true }
}

// missFirstIter charges loop l's first iteration: blocks persistent at l
// (or at an enclosing scope when the environment is cold) miss on first
// touch; AlwaysMiss always misses.
func missFirstIter(a *Analyzer, fg *cfg.FuncGraph, l *cfg.Loop, coldEnv bool) missFn {
	return func(pc int) bool {
		cat := a.Cats[pc]
		switch cat.Cat {
		case AlwaysMiss:
			return true
		case FirstMiss:
			if cat.ScopeFn == fg.Fn.Name && cat.LoopID == l.ID {
				return true
			}
			if scopeOutside(cat, fg.Fn.Name, l, fg) {
				return coldEnv
			}
		}
		return false
	}
}

// missSteady charges only AlwaysMiss accesses (everything persistent is
// resident after the first iteration).
func missSteady(a *Analyzer) missFn {
	return func(pc int) bool { return a.Cats[pc].Cat == AlwaysMiss }
}

// --- simulation plumbing ---

// catICache drives the shared VISA timing engine from categorizations.
// Residency is a generation-stamped array over the code segment's blocks:
// reset is a counter bump instead of a fresh map, so a pooled engine starts
// a new phase without touching the (per-block) backing store at all. The
// blocks made resident in the current generation are journaled, in order,
// so a tree walk can take residency back to a checkpoint.
type catICache struct {
	a        *Analyzer
	miss     missFn
	loaded   []uint32 // per code block; loaded[i] == gen means resident
	journal  []uint32 // blocks stamped this generation, oldest first
	gen      uint32
	blkBase  uint32 // block number of the first code block
	last     uint32
	haveLast bool
}

func newCatICache(a *Analyzer) *catICache {
	bb := a.CacheCfg.BlockBytes
	nblk := (len(a.Prog.Code)*isa.InstBytes + bb - 1) / bb
	return &catICache{
		a:       a,
		loaded:  make([]uint32, nblk+1),
		blkBase: isa.CodeBase / uint32(bb),
	}
}

func (c *catICache) reset(miss missFn) {
	c.miss = miss
	c.haveLast = false
	c.journal = c.journal[:0]
	c.gen++
	if c.gen == 0 {
		// Stamp wraparound after 2^32 resets: old stamps could alias the
		// new generation, so pay for one real clear.
		clear(c.loaded)
		c.gen = 1
	}
}

func (c *catICache) Access(addr uint32) bool {
	blk := addr / uint32(c.a.CacheCfg.BlockBytes)
	if c.haveLast && blk == c.last {
		return true // sequential fetch within the just-fetched block
	}
	c.last, c.haveLast = blk, true
	idx := blk - c.blkBase
	if c.loaded[idx] == c.gen {
		return true
	}
	pc := int((addr - isa.CodeBase) / isa.InstBytes)
	if !c.miss(pc) {
		c.stamp(idx)
		return true
	}
	if c.a.Cats[pc].Cat != AlwaysMiss {
		c.stamp(idx) // persistent: resident after the one miss
	}
	return false
}

// stamp makes block idx resident. A block is stamped at most once per
// generation between undos, so the journal never outgrows the code segment.
func (c *catICache) stamp(idx uint32) {
	c.loaded[idx] = c.gen
	c.journal = append(c.journal, idx)
}

// undo evicts the blocks stamped after the journal held n entries. Zero is
// never a live generation.
func (c *catICache) undo(n int) {
	for _, idx := range c.journal[n:] {
		c.loaded[idx] = 0
	}
	c.journal = c.journal[:n]
}

// hitCache is the D-cache stand-in: always hit (misses are charged by the
// profile pad, as in the paper, or by the static per-block pad).
type hitCache struct{}

func (hitCache) Access(uint32) bool { return true }

// missCache is the degraded D-cache stand-in used when the static analysis
// cannot prove persistence: every reference misses.
type missCache struct{}

func (missCache) Access(uint32) bool { return false }

// penBus supplies the miss penalty at the analysis frequency. It is held
// by pointer so a pooled engine can be retuned to a new frequency in place.
// Every read bumps the analyzer's penReads counter.
type penBus struct {
	pen   int64
	reads *int64
}

func (b *penBus) Latency() int64 {
	*b.reads++
	return b.pen
}

// engUnit is one pooled simulation engine with the handles needed to
// re-arm it for a new phase, and the buffers of its tree walks.
type engUnit struct {
	eng    *simple.Pipeline
	ic     *catICache
	bus    *penBus
	dcMiss bool // which D-cache stand-in the engine was built with

	cps  []checkpoint // the walk's saved states, by increasing depth
	path []int32      // the walk's current path, as indices into the tree's ops
}

// checkpoint is everything Pipeline.Feed reads that a walk changes: the
// pipeline timing state and the I-cache stand-in's residency and last
// fetched block. The D-cache stand-ins and the penalty bus are stateless.
type checkpoint struct {
	depth    int
	st       simple.State
	journal  int
	last     uint32
	haveLast bool
}

func (u *engUnit) save(depth int) {
	u.cps = append(u.cps, checkpoint{
		depth:    depth,
		st:       u.eng.State(),
		journal:  len(u.ic.journal),
		last:     u.ic.last,
		haveLast: u.ic.haveLast,
	})
}

func (u *engUnit) restore(cp *checkpoint) {
	u.eng.SetState(cp.st)
	u.ic.undo(cp.journal)
	u.ic.last, u.ic.haveLast = cp.last, cp.haveLast
}

// engine returns a drained VISA timing engine configured for one
// simulation phase, reusing a pooled one when available. Pass the unit
// back to release when the phase ends. Accumulating pipeline statistics
// (activity, stall counters) survive reuse; the analyzer never reads them.
func (a *Analyzer) engine(pen int64, miss missFn) *engUnit {
	dcMiss := a.staticDC && !a.staticDCFits
	for n := len(a.engPool); n > 0; n = len(a.engPool) {
		u := a.engPool[n-1]
		a.engPool = a.engPool[:n-1]
		if u.dcMiss != dcMiss {
			continue // built against the other D-cache stand-in: rebuild
		}
		u.bus.pen = pen
		u.ic.reset(miss)
		u.eng.SnippetCycles = a.SnippetCycles
		u.eng.Rebase(0)
		return u
	}
	ic := newCatICache(a)
	ic.reset(miss)
	var dc simple.Cache = hitCache{}
	if dcMiss {
		dc = missCache{}
	}
	bus := &penBus{pen: pen, reads: &a.penReads}
	eng := simple.New(ic, dc, bus)
	eng.SnippetCycles = a.SnippetCycles
	return &engUnit{eng: eng, ic: ic, bus: bus, dcMiss: dcMiss}
}

// release returns a phase's engine to the pool.
func (a *Analyzer) release(u *engUnit) {
	a.engPool = append(a.engPool, u)
}

// walk feeds every path of t into u's engine, each from the engine's
// state at entry, and calls leaf at each path's end. It feeds a prefix the
// paths share once, checkpoints the engine where the tree branches, and
// restores the checkpoint before the next branch; the simulation is
// deterministic, so each leaf sees exactly the state a separate run of its
// path from the entry state would reach. leaf may advance the engine (the
// walk restores it), and u.path indexes the path's steps in t.ops while it
// runs. coldInner selects the charging context for inner-loop and callee
// summaries.
func (a *Analyzer) walk(u *engUnit, fg *cfg.FuncGraph, t *pathTree, pen int64, coldInner bool, leaf func() error) error {
	u.cps, u.path = u.cps[:0], u.path[:0]
	u.save(0)
	var d exec.DynInst
	for i := range t.ops {
		op := &t.ops[i]
		switch op.kind {
		case opStep:
			if err := a.feed(u.eng, fg, op, &d, pen, coldInner); err != nil {
				return err
			}
			u.path = append(u.path, int32(i))
			if op.save {
				u.save(len(u.path))
			}
		case opLeaf:
			if err := leaf(); err != nil {
				return err
			}
		case opBack:
			depth := int(op.depth)
			n := len(u.cps)
			for u.cps[n-1].depth > depth {
				n--
			}
			u.cps = u.cps[:n]
			u.restore(&u.cps[n-1])
			u.path = u.path[:depth]
		}
	}
	return nil
}

// worstFrom returns the longest completion time over t's paths, each fed
// from u's current state, and releases u.
func (a *Analyzer) worstFrom(u *engUnit, fg *cfg.FuncGraph, t *pathTree, pen int64, coldInner bool) (int64, error) {
	defer a.release(u)
	worst := int64(0)
	err := a.walk(u, fg, t, pen, coldInner, func() error {
		worst = max(worst, u.eng.Now())
		return nil
	})
	return worst, err
}

// worstPath returns the longest time over t's paths from a drained pipeline
// at cycle 0, charging first touches by miss.
func (a *Analyzer) worstPath(fg *cfg.FuncGraph, t *pathTree, pen int64, miss missFn) (int64, error) {
	return a.worstFrom(a.engine(pen, miss), fg, t, pen, true)
}

// runPath feeds the steps ops[i] for i in path into eng.
func (a *Analyzer) runPath(eng *simple.Pipeline, fg *cfg.FuncGraph, ops []treeOp, path []int32, pen int64, coldInner bool) error {
	var d exec.DynInst
	for _, i := range path {
		if err := a.feed(eng, fg, &ops[i], &d, pen, coldInner); err != nil {
			return err
		}
	}
	return nil
}

// feed feeds one step into eng, using d as its instruction buffer. Inner
// loops and calls are charged their (memoized) summaries as drained
// segments.
func (a *Analyzer) feed(eng *simple.Pipeline, fg *cfg.FuncGraph, s *treeOp, d *exec.DynInst, pen int64, coldInner bool) error {
	switch {
	case s.loop >= 0:
		cyc, err := a.loopTotal(fg, fg.Loops[s.loop], pen, coldInner)
		if err != nil {
			return err
		}
		eng.Rebase(eng.Now() + cyc)
	case s.callee >= 0:
		cyc, err := a.fnTotal(a.callees[s.callee], pen)
		if err != nil {
			return err
		}
		eng.Rebase(eng.Now() + cyc)
	default:
		// Field writes, not a DynInst literal: the literal is built in a
		// stack temporary and copied out, stalling on store forwarding.
		// The other fields stay zero.
		d.PC = s.pc
		d.Inst = fg.Prog.Code[s.pc]
		d.Taken = s.taken
		eng.Feed(d)
	}
	return nil
}

// loopTotal returns the WCET in cycles of one complete execution of loop l:
// worst first iteration, Bound-1 worst steady iterations with pipeline
// overlap, and the worst exit path (paper §3.3's fix-point approach). Each
// of the three parts is taken from partMemo when an earlier operating point
// found it penalty-invariant.
func (a *Analyzer) loopTotal(fg *cfg.FuncGraph, l *cfg.Loop, pen int64, cold bool) (int64, error) {
	key := sumKey{fg.Fn.Name, l.ID, pen, cold}
	if v, ok := a.sumMemo[key]; ok {
		if v.penDep {
			a.penReads++ // the enclosing phase depends on pen through v
		}
		return v.cycles, nil
	}
	pv, err := a.pathsOf(fg, l)
	if err != nil {
		return 0, err
	}
	pk := partKey{fg.Fn.Name, l.ID, cold}
	parts := a.partMemo[pk]
	if parts == nil {
		parts = &loopParts{}
		a.partMemo[pk] = parts
	}
	reads := a.penReads

	// Worst first iteration, cold-charged. With a zero bound only the exit
	// path runs (header condition false immediately), also cold-charged.
	first := parts.first
	if !parts.haveFirst {
		r := a.penReads
		coldPaths := pv.body
		if l.Bound == 0 {
			coldPaths = pv.exit
		}
		if first, err = a.worstPath(fg, coldPaths, pen, missFirstIter(a, fg, l, cold)); err != nil {
			return 0, err
		}
		parts.first, parts.haveFirst = first, a.penReads == r
	}
	total := first

	if l.Bound > 0 {
		// The exit paths start from the steady-state join, so the exit part
		// is penalty-invariant only when the steady part is too.
		steady, join := parts.steady, parts.join
		steadyInv := parts.haveSteady
		if !steadyInv {
			r := a.penReads
			if steady, join, err = a.loopSteady(fg, pv.body, pen); err != nil {
				return 0, err
			}
			steadyInv = a.penReads == r
			parts.steady, parts.join, parts.haveSteady = steady, join, steadyInv
		}
		exit := parts.exit
		if !parts.haveExit {
			r := a.penReads
			if exit, err = a.loopExit(fg, pv.exit, pen, join); err != nil {
				return 0, err
			}
			parts.exit, parts.haveExit = exit, steadyInv && a.penReads == r
		}
		total += int64(l.Bound-1)*steady + exit
	}

	a.sumMemo[key] = summary{total, a.penReads != reads}
	return total, nil
}

// loopSteady returns the steady-state per-iteration time of a loop's body
// paths with pipeline overlap, and the joined entry state for its exit
// paths: self-repeat each path to a fix-point, join the normalized exit
// states of all paths into a single pessimistic entry state, and re-time
// each path from that state. The join is a componentwise upper bound of any
// reachable inter-iteration state, so the resulting delta is safe for
// arbitrary path interleavings. The tree walk feeds each path's first
// iteration; the repeats run at its leaf.
func (a *Analyzer) loopSteady(fg *cfg.FuncGraph, body *pathTree, pen int64) (int64, simple.State, error) {
	steady := int64(0)
	join := simple.State{}
	u := a.engine(pen, missSteady(a))
	err := a.walk(u, fg, body, pen, false, func() error {
		prev := u.eng.Now()
		for rep := 1; rep < 4; rep++ {
			if err := a.runPath(u.eng, fg, body.ops, u.path, pen, false); err != nil {
				return err
			}
			steady = max(steady, u.eng.Now()-prev)
			prev = u.eng.Now()
		}
		join = join.Join(u.eng.State().Shifted(-u.eng.Now()))
		return nil
	})
	a.release(u)
	if err != nil {
		return 0, join, err
	}
	retimed, err := a.loopExit(fg, body, pen, join)
	if err != nil {
		return 0, join, err
	}
	return max(steady, retimed), join, nil
}

// loopExit returns the worst time over paths from the joined steady state.
func (a *Analyzer) loopExit(fg *cfg.FuncGraph, paths *pathTree, pen int64, join simple.State) (int64, error) {
	u := a.engine(pen, missSteady(a))
	u.eng.SetState(join)
	return a.worstFrom(u, fg, paths, pen, false)
}

// fnTotal returns the cold WCET of one invocation of fn, from its entry to
// any return.
func (a *Analyzer) fnTotal(fn string, pen int64) (int64, error) {
	key := fnKey{fn, pen}
	if v, ok := a.fnMemo[key]; ok {
		a.penReads++ // conservatively: a cold callee almost always misses
		return v, nil
	}
	fg := a.Graph.Funcs[fn]
	if fg == nil {
		return 0, fmt.Errorf("wcet: unknown function %s", fn)
	}
	paths, err := a.regionPaths(fg, fg.Fn.Start, false)
	if err != nil {
		return 0, err
	}
	worst, err := a.worstPath(fg, paths, pen, missAlwaysCold(a))
	if err != nil {
		return 0, err
	}
	a.fnMemo[key] = worst
	return worst, nil
}

func (a *Analyzer) pathsOf(fg *cfg.FuncGraph, l *cfg.Loop) (loopTrees, error) {
	key := loopKey{fg.Fn.Name, l.ID}
	if v, ok := a.pathsMemo[key]; ok {
		return v, nil
	}
	v, err := a.loopPaths(fg, l)
	if err != nil {
		return loopTrees{}, err
	}
	a.pathsMemo[key] = v
	return v, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
