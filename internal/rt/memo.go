package rt

import (
	"slices"

	"visa/internal/bpred"
	"visa/internal/cache"
	"visa/internal/core"
)

// The task memo. A periodic task runs the same program on the same input
// every instance, and the caches and predictors it leaves behind are the
// only state that survives into the next one: runTask calls bus.SetFreq
// and rebase(0) before anything else, so the bus and both pipelines start
// every task from the same state. A task is therefore a function of its
// start procState, the plan fields runTask reads, and the input seed —
// and once warm, most instances start where an earlier one did. The memo
// maps that exact key to the task's outcome (its taskResult, its ordered
// taskEvents and its end procState) and serves a repeat without
// simulating it.
//
// The memo lives in one procSim, so it dies with its RunProcessor call.
// RunProcessor bypasses it under a fault injector and under varied input
// seeds; NewSetup's profile runs never build one.

// Caps on one run's memo. A 200-instance run reaches 2–15 distinct start
// states; past a cap, new states and outcomes are simulated and not kept.
const (
	maxMemoStates  = 32
	maxMemoEntries = 64
)

// procState is a value copy of the procSim state that survives between
// tasks: both caches and, on the complex core, the predictors.
type procState struct {
	ic, dc cache.Snapshot
	g      bpred.GshareSnapshot
	ind    bpred.IndirectSnapshot
	hash   uint64
}

// snapshot copies ps's surviving state into st, reusing st's buffers.
func (ps *procSim) snapshot(st *procState) {
	ps.ic.Snapshot(&st.ic)
	ps.dc.Snapshot(&st.dc)
	st.hash = st.ic.Hash()*31 ^ st.dc.Hash()
	if ps.cx != nil {
		ps.cx.Gshare.Snapshot(&st.g)
		ps.cx.Indirect.Snapshot(&st.ind)
		st.hash = (st.hash*31^st.g.Hash())*31 ^ st.ind.Hash()
	}
}

// equal reports whether every task runs identically from st and o. The
// hash only picks candidates; equal decides.
func (st *procState) equal(o *procState) bool {
	return st.hash == o.hash && st.ic.Equal(&o.ic) && st.dc.Equal(&o.dc) &&
		st.g.Equal(&o.g) && st.ind.Equal(&o.ind)
}

// memoEntry is one memoized task: its key (start, plan fields, seed) and
// its outcome. icD/dcD are the task's cache accesses and misses, which
// advance the caches' clocks and counters on a hit exactly as simulating
// would.
type memoEntry struct {
	start, end *procState
	plan       *core.Plan
	seed       int32
	res        taskResult
	events     []taskEvent
	icD, dcD   cache.Stats
}

// samePlan reports whether runTask reads the same fields from a and b.
func samePlan(a, b *core.Plan) bool {
	return a == b || a.Spec == b.Spec && a.Rec == b.Rec &&
		a.Speculating == b.Speculating && a.WatchdogInit == b.WatchdogInit &&
		slices.Equal(a.WatchdogAdd, b.WatchdogAdd)
}

// taskMemo is one run's table of tasks by exact start state.
type taskMemo struct {
	states  []*procState
	entries []*memoEntry
	// cur is the interned current state of the procSim, or nil when it is
	// not known (after a flush, or after a task the memo did not keep).
	cur     *procState
	scratch *procState
	shadow  shadowFunc
	hits    int
}

// shadowFunc, when a test sets one (memoHook.shadow), replaces the memo's
// advance on every hit: it must leave ps in e's end state, or fail the
// run.
type shadowFunc func(ps *procSim, plan *core.Plan, seed int32, e *memoEntry) error

// forget marks the procSim's state unknown; the caches or predictors were
// changed outside a task.
func (m *taskMemo) forget() {
	if m != nil {
		m.cur = nil
	}
}

// intern snapshots ps and returns the memo's copy of that state, adding it
// if it is new. It returns nil for a new state when the memo is full.
func (m *taskMemo) intern(ps *procSim) *procState {
	st := m.scratch
	if st == nil {
		st = new(procState)
	}
	ps.snapshot(st)
	for _, o := range m.states {
		if o.equal(st) {
			m.scratch = st
			return o
		}
	}
	if len(m.states) == maxMemoStates {
		m.scratch = st
		return nil
	}
	m.scratch = nil
	m.states = append(m.states, st)
	return st
}

// find returns the entry for a task from start under plan on seed whose
// accesses fit in ps's cache clocks, or nil.
func (m *taskMemo) find(ps *procSim, start *procState, plan *core.Plan, seed int32) *memoEntry {
	for _, e := range m.entries {
		if e.start == start && e.seed == seed && samePlan(e.plan, plan) &&
			e.icD.Accesses <= ps.ic.Headroom() && e.dcD.Accesses <= ps.dc.Headroom() {
			return e
		}
	}
	return nil
}

// advance puts ps where simulating e's task from e's start state leaves
// it: e's end state, with the cache clocks and counters moved on by the
// task's accesses.
func (ps *procSim) advance(e *memoEntry) {
	ps.ic.Advance(&e.end.ic, e.icD)
	ps.dc.Advance(&e.end.dc, e.dcD)
	if ps.cx != nil {
		ps.cx.Gshare.Restore(&e.end.g)
		ps.cx.Indirect.Restore(&e.end.ind)
	}
}

// task runs one task instance under plan on input seed and returns its
// outcome and its ordered events, which the caller applies before the next
// task. With a memo, a task whose key the memo holds is served from it.
func (ps *procSim) task(plan *core.Plan, seed int32) (taskResult, []taskEvent, error) {
	m := ps.memo
	if m == nil {
		res, err := ps.runTask(plan, seed)
		return res, ps.events, err
	}
	start := m.cur
	if start == nil {
		start = m.intern(ps)
	}
	if start != nil {
		if e := m.find(ps, start, plan, seed); e != nil {
			if m.shadow != nil {
				if err := m.shadow(ps, plan, seed, e); err != nil {
					return taskResult{}, nil, err
				}
			} else {
				ps.advance(e)
			}
			m.hits++
			m.cur = e.end
			return e.res, e.events, nil
		}
	}

	icRoom, dcRoom := ps.ic.Headroom(), ps.dc.Headroom()
	ic0, dc0 := ps.ic.Stats(), ps.dc.Stats()
	res, err := ps.runTask(plan, seed)
	if err != nil {
		return res, nil, err
	}
	m.cur = nil
	icD, dcD := ps.ic.Stats().Delta(ic0), ps.dc.Stats().Delta(dc0)
	// A task whose accesses renormalized a cache clock moved the stamps in
	// a way its ranks do not carry; it is not kept.
	if start != nil && len(m.entries) < maxMemoEntries && icD.Accesses <= icRoom && dcD.Accesses <= dcRoom {
		if end := m.intern(ps); end != nil {
			m.entries = append(m.entries, &memoEntry{
				start: start, end: end, plan: plan, seed: seed, res: res,
				events: slices.Clone(ps.events), icD: icD, dcD: dcD,
			})
			m.cur = end
		}
	}
	return res, ps.events, nil
}
