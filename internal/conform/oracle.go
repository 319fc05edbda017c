package conform

import (
	"fmt"
	"math/bits"
	"sync"

	"visa/internal/cache"
	"visa/internal/exec"
	"visa/internal/fault"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/ooo"
	"visa/internal/power"
	"visa/internal/simple"
	"visa/internal/wcet"
)

// DefaultMaxInsts bounds every driving run; a program that does not halt
// within it is an infrastructure error, not an invariant violation.
const DefaultMaxInsts = 8 << 20

// Options parameterizes one oracle check.
type Options struct {
	// Points are the operating-point frequencies (MHz) swept for I2.
	// Empty means every DVS point.
	Points []int

	// Faults are paranoid-safe fault specs under which I2 and I3 are
	// re-checked. Non-paranoid-safe kinds are rejected: they may legally
	// breach the bound, so they prove nothing about the models.
	Faults []fault.Spec

	// SwitchMHz is the operating point of the I3 mode-switch run
	// (0 = 1000 MHz).
	SwitchMHz int

	// MaxInsts overrides DefaultMaxInsts when > 0.
	MaxInsts int64
}

// DefaultFaults is the paranoid-safe spec set used by the campaign and the
// visasim replay path. The per-kind seeds derive from the program seed
// alone, so `visasim -conform -gen <seed>` reproduces a campaign cell with
// no further flags.
func DefaultFaults(progSeed uint64) []fault.Spec {
	return []fault.Spec{
		{Kind: fault.CacheFlush, Rate: 500, Seed: fault.DeriveSeed(progSeed, uint64(fault.CacheFlush))},
		{Kind: fault.MemJitter, Rate: 250, Cycles: 64, Seed: fault.DeriveSeed(progSeed, uint64(fault.MemJitter))},
	}
}

// Violation is one invariant breach. Violations are data, not errors:
// Check keeps going and reports every breach it can find.
type Violation struct {
	Invariant string // "I1".."I4"
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result summarizes one program's oracle sweep.
type Result struct {
	Name       string
	DynInsts   int64
	SubTasks   int
	Points     int
	Runs       int // timing-model runs executed
	Violations []Violation
}

// Failed reports whether any violation of the named invariant was found
// ("" = any invariant).
func (r *Result) Failed(invariant string) bool {
	for _, v := range r.Violations {
		if invariant == "" || v.Invariant == invariant {
			return true
		}
	}
	return false
}

func (r *Result) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{invariant, fmt.Sprintf(format, args...)})
}

// streamHash folds the functional retirement stream into one word, so
// divergence anywhere in a multi-million-instruction trace is caught
// without storing it. It starts at streamBasis and folds each DynInst as
// three 64-bit words v — Seq; PC | NextPC<<32; Addr | Op<<32 | Taken<<48 —
// by x' = rotl((x^v)·hashMul, 31)·hashFin. The packing is injective, so a
// change to any one field changes exactly one word. Both multipliers are
// odd, so for a fixed word the step is a bijection of the state, and for a
// fixed state it is injective in the word: two streams that differ in
// exactly one word always hash differently.
type streamHash uint64

const (
	streamBasis streamHash = 14695981039346656037
	hashMul                = 0x9e3779b97f4a7c15
	hashFin                = 0xbf58476d1ce4e5b9
)

func (h *streamHash) word(v uint64) {
	*h = streamHash(bits.RotateLeft64((uint64(*h)^v)*hashMul, 31) * hashFin)
}

func (h *streamHash) add(d *exec.DynInst) {
	var taken uint64
	if d.Taken {
		taken = 1
	}
	h.word(uint64(d.Seq))
	h.word(uint64(uint32(d.PC)) | uint64(uint32(d.NextPC))<<32)
	h.word(uint64(d.Addr) | uint64(d.Inst.Op)<<32 | taken<<48)
}

// funcTrace is what one driving run observed of the functional machine.
type funcTrace struct {
	seq  int64
	hash streamHash
	out  []int32
	outf []float64
}

func traceOf(m *exec.Machine, h streamHash) funcTrace {
	return funcTrace{seq: m.Seq, hash: h, out: m.Out, outf: m.OutF}
}

func (a funcTrace) equal(b funcTrace) bool {
	if a.seq != b.seq || a.hash != b.hash ||
		len(a.out) != len(b.out) || len(a.outf) != len(b.outf) {
		return false
	}
	for i := range a.out {
		if a.out[i] != b.out[i] {
			return false
		}
	}
	for i := range a.outf {
		if a.outf[i] != b.outf[i] {
			return false
		}
	}
	return true
}

func budgetError(m *exec.Machine, maxInsts int64) error {
	return fmt.Errorf("conform: %s: no halt within %d instructions", m.Prog.Name, maxInsts)
}

// stepBudget wraps Machine.Step with the instruction budget: the
// instruction that takes the count past maxInsts is an error.
func stepBudget(m *exec.Machine, maxInsts int64) (exec.DynInst, bool, error) {
	d, ok, err := m.Step()
	if err != nil {
		return d, false, err
	}
	if ok && m.Seq > maxInsts {
		return d, false, budgetError(m, maxInsts)
	}
	return d, ok, nil
}

// batchSize is the number of records one fillBudget call asks Fill for.
const batchSize = 64

// fillBudget is stepBudget for a batch: it fills dst from m, never past
// the instruction that takes the count to maxInsts+1, so an over-budget
// run reports the budget error, or a fault at or before that instruction,
// exactly as stepping one instruction at a time would. n == 0 with a nil
// error means the program halted.
func fillBudget(m *exec.Machine, dst *[batchSize]exec.DynInst, maxInsts int64) (int, error) {
	n, err := m.Fill(dst[:min(batchSize, maxInsts+1-m.Seq)])
	if err != nil {
		return 0, err
	}
	if m.Seq > maxInsts {
		return 0, budgetError(m, maxInsts)
	}
	return n, nil
}

// funcRun executes the program on the functional machine m alone, from
// the state m is in.
func funcRun(m *exec.Machine, maxInsts int64) (funcTrace, error) {
	h := streamBasis
	for {
		d, ok, err := stepBudget(m, maxInsts)
		if err != nil {
			return funcTrace{}, err
		}
		if !ok {
			return traceOf(m, h), nil
		}
		h.add(&d)
	}
}

// models is the hardware one Check call drives: the functional machine,
// the two L1 caches, the memory bus and the simple pipeline, plus the
// complex pipeline over the same caches and bus, built by the first
// mode-switch run, and the record batch the timing runs fill. Each run
// first resets what it drives to the state its constructor leaves, so a
// run on reused models observes exactly what it would on fresh ones,
// without allocating a 64 KiB memory page, two caches or the complex
// core's predictor tables per run. A model set outlives its Check: it goes
// back to freeModels for the next program.
type models struct {
	m      *exec.Machine
	ic, dc *cache.Cache
	bus    *memsys.Bus
	simple *simple.Pipeline
	ooo    *ooo.Pipeline
	batch  [batchSize]exec.DynInst
}

func newModels(prog *isa.Program) *models {
	ic := cache.MustNew(cache.VISAL1)
	dc := cache.MustNew(cache.VISAL1)
	bus := memsys.NewBus(memsys.Default, 1000)
	return &models{m: exec.New(prog), ic: ic, dc: dc, bus: bus, simple: simple.New(ic, dc, bus)}
}

// freeModels holds the model sets no Check is using, so a campaign keeps
// one set per concurrent Check instead of building one per program. It is
// a plain free list, not a sync.Pool: a pool drops its sets at every GC,
// and rebuilding them raised the campaign's resident memory.
var freeModels struct {
	mu   sync.Mutex
	sets []*models
}

// acquireModels returns a model set bound to prog, in its fresh state.
func acquireModels(prog *isa.Program) *models {
	freeModels.mu.Lock()
	n := len(freeModels.sets)
	if n == 0 {
		freeModels.mu.Unlock()
		return newModels(prog)
	}
	ms := freeModels.sets[n-1]
	freeModels.sets = freeModels.sets[:n-1]
	freeModels.mu.Unlock()
	ms.m.Prog = prog
	ms.m.Reset()
	return ms
}

func releaseModels(ms *models) {
	freeModels.mu.Lock()
	defer freeModels.mu.Unlock()
	freeModels.sets = append(freeModels.sets, ms)
}

// reset puts the machine, the caches and the bus in their fresh state,
// with the bus at mhz, and applies the injector's instance flush.
func (ms *models) reset(mhz int, inj *fault.Injector) {
	ms.m.Reset()
	ms.ic.Reset()
	ms.dc.Reset()
	ms.bus.SetFreq(mhz)
	ms.bus.Stats = memsys.Stats{}
	if inj.FlushInstance() {
		ms.ic.Flush()
		ms.dc.Flush()
	}
}

// resetSimple puts p in the state simple.New leaves it in, with inj
// attached when non-nil.
func resetSimple(p *simple.Pipeline, inj *fault.Injector) {
	p.Rebase(0)
	p.TakeActivity()
	p.Mispredicts = 0
	p.Stats = simple.Stats{}
	p.Inject = nil
	if inj != nil {
		p.Inject = inj
	}
}

// simpleAt resets the models for one simple-pipeline run at mhz.
func (ms *models) simpleAt(mhz int, inj *fault.Injector) *simple.Pipeline {
	ms.reset(mhz, inj)
	resetSimple(ms.simple, inj)
	return ms.simple
}

// oooAt resets the models for one complex-core run at mhz, building the
// complex pipeline on first use.
func (ms *models) oooAt(mhz int, inj *fault.Injector) *ooo.Pipeline {
	ms.reset(mhz, inj)
	if ms.ooo == nil {
		ms.ooo = ooo.New(ooo.Config{}, ms.ic, ms.dc, ms.bus)
	}
	p := ms.ooo
	p.Rebase(0)
	p.TakeActivity()
	p.FlushPredictors()
	p.BranchMispredicts, p.IndirectMispreds = 0, 0
	p.Stats = ooo.Stats{}
	p.Inject = nil
	if inj != nil {
		p.Inject = inj
	}
	resetSimple(p.SimpleEngine(), inj)
	return p
}

// simpleObs is one simple-pipeline run's observation: the functional trace
// it consumed, the per-sub-task timing windows (same boundary convention
// as the rt profiler: the cycle counter is sampled before the MARK is
// fed, so MARK k's snippet cost lands in sub-task k's window), and the
// accounting counters for I4.
type simpleObs struct {
	trace     funcTrace
	subCycles []int64
	dMisses   []int64
	total     int64
	fed       int64
	memOps    int64
	retired   int64
	icAcc     int64
	dcAcc     int64
}

func newInjector(spec *fault.Spec) (*fault.Injector, error) {
	if spec == nil {
		return nil, nil
	}
	return fault.New(*spec)
}

func driveSimple(ms *models, mhz int, spec *fault.Spec, maxInsts int64) (*simpleObs, error) {
	inj, err := newInjector(spec)
	if err != nil {
		return nil, err
	}
	p := ms.simpleAt(mhz, inj)
	m, ic, dc := ms.m, ms.ic, ms.dc
	nSub := m.Prog.NumSubTasks()
	o := &simpleObs{
		subCycles: make([]int64, nSub),
		dMisses:   make([]int64, nSub),
	}
	h := streamBasis
	cur := -1
	var lastBoundary int64
	var lastDC cache.Stats
	for {
		n, err := fillBudget(m, &ms.batch, maxInsts)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		for i := range ms.batch[:n] {
			d := &ms.batch[i]
			if d.Inst.Op == isa.MARK {
				now := p.Now()
				if cur >= 0 {
					o.subCycles[cur] = now - lastBoundary
					o.dMisses[cur] = dc.Stats().Delta(lastDC).Misses
				}
				cur = int(d.Inst.Imm)
				lastBoundary = now
				lastDC = dc.Stats()
			}
			h.add(d)
			if d.Inst.Op.IsMem() && d.Addr < isa.MMIOBase {
				o.memOps++
			}
			p.Feed(d)
		}
		o.fed += int64(n)
	}
	if cur >= 0 {
		o.subCycles[cur] = p.Now() - lastBoundary
		o.dMisses[cur] = dc.Stats().Delta(lastDC).Misses
	}
	o.trace = traceOf(m, h)
	o.total = p.Now()
	o.retired = p.Stats.Retired
	o.icAcc = ic.Stats().Accesses
	o.dcAcc = dc.Stats().Accesses
	return o, nil
}

// switchObs is one complex-core run with a mid-task mode switch.
type switchObs struct {
	trace       funcTrace
	fed         int64
	switchMark  int
	switchAt    int64 // Now() at the switch boundary
	start       int64 // SwitchToSimple's return: accounting origin
	nowAfter    int64 // Now() immediately after the switch
	firstRetire int64 // retire cycle of the first post-switch instruction
	subCycles   map[int]int64
	stats       ooo.Stats
	ovhd        int64
}

// driveSwitch runs the complex core and forces a complex→simple switch at
// the switchMark boundary, mirroring the runner's checkpoint protocol:
// sample the clock, switch, then feed the MARK into simple mode — so the
// windows of sub-tasks switchMark.. are pure simple-mode time measured
// from the post-overhead origin.
func driveSwitch(ms *models, mhz, switchMark int, spec *fault.Spec, maxInsts int64) (*switchObs, error) {
	inj, err := newInjector(spec)
	if err != nil {
		return nil, err
	}
	p := ms.oooAt(mhz, inj)
	m := ms.m
	o := &switchObs{
		switchMark:  switchMark,
		firstRetire: -1,
		subCycles:   map[int]int64{},
		ovhd:        p.Cfg.SwitchOvhdCycles,
	}
	h := streamBasis
	switched := false
	cur := -1
	var lastBoundary int64
	for {
		n, err := fillBudget(m, &ms.batch, maxInsts)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		for i := range ms.batch[:n] {
			d := &ms.batch[i]
			if d.Inst.Op == isa.MARK {
				now := p.Now()
				if switched && cur >= 0 {
					o.subCycles[cur] = now - lastBoundary
				}
				cur = int(d.Inst.Imm)
				lastBoundary = now
				if cur == switchMark && !switched {
					o.switchAt = now
					o.start = p.SwitchToSimple(now)
					o.nowAfter = p.Now()
					lastBoundary = o.start
					switched = true
				}
			}
			h.add(d)
			rt := p.Feed(d)
			if switched && o.firstRetire < 0 {
				o.firstRetire = rt
			}
		}
		o.fed += int64(n)
	}
	if !switched {
		return nil, fmt.Errorf("conform: %s: switch mark %d never executed", m.Prog.Name, switchMark)
	}
	if cur >= 0 {
		o.subCycles[cur] = p.Now() - lastBoundary
	}
	o.trace = traceOf(m, h)
	o.stats = p.Stats
	return o, nil
}

func specName(spec *fault.Spec) string {
	if spec == nil {
		return "no-fault"
	}
	return spec.String()
}

// runLabel names one timing run in a violation ("simple/600MHz/no-fault").
// It is formatted only when a check fails, so a clean run builds no string.
type runLabel struct {
	kind string
	mhz  int
	spec *fault.Spec
}

func (l runLabel) String() string {
	return fmt.Sprintf("%s/%dMHz/%s", l.kind, l.mhz, specName(l.spec))
}

// Check sweeps one program through every model and reports the invariant
// violations it finds. An error is an infrastructure failure (the program
// faulted, did not halt, or the analyzer rejected it) — distinct from a
// violation, which is the models disagreeing about a valid program.
func Check(prog *isa.Program, opt Options) (*Result, error) {
	points := opt.Points
	if len(points) == 0 {
		for _, pt := range power.Points() {
			points = append(points, pt.FMHz)
		}
	}
	switchMHz := opt.SwitchMHz
	if switchMHz == 0 {
		switchMHz = 1000
	}
	maxInsts := opt.MaxInsts
	if maxInsts <= 0 {
		maxInsts = DefaultMaxInsts
	}
	for _, s := range opt.Faults {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("conform: %w", err)
		}
		if !s.Kind.ParanoidSafe() {
			return nil, fmt.Errorf("conform: fault kind %s is not paranoid-safe; it may legally breach the WCET bound", s.Kind)
		}
	}
	if prog.NumSubTasks() == 0 {
		return nil, fmt.Errorf("conform: %s has no sub-task marks; the oracle needs WCET regions", prog.Name)
	}

	res := &Result{Name: prog.Name, SubTasks: prog.NumSubTasks(), Points: len(points)}

	// I1 seed: the functional reference on a fresh machine, run again on
	// the model set's machine (fresh, or reset from an earlier program),
	// and once more on it after Machine.Reset, which every timing run below
	// relies on. The reference steps one instruction at a time and the
	// timing runs fill batches, so I1 also checks Fill against Step.
	ref, err := funcRun(exec.New(prog), maxInsts)
	if err != nil {
		return nil, err
	}
	res.DynInsts = ref.seq
	ms := acquireModels(prog)
	defer releaseModels(ms)
	again, err := funcRun(ms.m, maxInsts)
	if err != nil {
		return nil, err
	}
	if !ref.equal(again) {
		res.violate("I1", "repeated functional runs diverge: %d vs %d insts, hash %x vs %x",
			ref.seq, again.seq, ref.hash, again.hash)
	}
	ms.m.Reset()
	reset, err := funcRun(ms.m, maxInsts)
	if err != nil {
		return nil, err
	}
	if !ref.equal(reset) {
		res.violate("I1", "functional run after Machine.Reset diverges from a fresh machine: %d vs %d insts, hash %x vs %x",
			reset.seq, ref.seq, reset.hash, ref.hash)
	}

	// Static bounds: analyzer + cold-profile D-cache pad, exactly as the
	// experiment harness builds its WCET table.
	an, err := wcet.New(prog)
	if err != nil {
		return nil, err
	}
	cold, err := driveSimple(ms, 1000, nil, maxInsts)
	if err != nil {
		return nil, err
	}
	res.Runs++
	if err := an.SetDCachePad(cold.dMisses); err != nil {
		return nil, err
	}
	bounds := map[int]*wcet.Result{}
	boundAt := func(f int) (*wcet.Result, error) {
		if b, ok := bounds[f]; ok {
			return b, nil
		}
		b, err := an.Analyze(f)
		if err != nil {
			return nil, err
		}
		bounds[f] = b
		return b, nil
	}

	// The fault sweep always includes the uninjected run.
	specs := []*fault.Spec{nil}
	for i := range opt.Faults {
		specs = append(specs, &opt.Faults[i])
	}

	// I2 (+ I1, I4) at every operating point, under every spec.
	for _, f := range points {
		b, err := boundAt(f)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			o, err := driveSimple(ms, f, spec, maxInsts)
			if err != nil {
				return nil, err
			}
			res.Runs++
			label := runLabel{"simple", f, spec}
			checkStream(res, label, ref, o.trace)
			checkSimpleAccounting(res, label, o)
			checkBound(res, label, o.subCycles, o.total, b)
		}
	}

	// I3 (+ I1, I4): mode switch at the middle sub-task boundary.
	switchMark := prog.NumSubTasks() / 2
	b, err := boundAt(switchMHz)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		o, err := driveSwitch(ms, switchMHz, switchMark, spec, maxInsts)
		if err != nil {
			return nil, err
		}
		res.Runs++
		label := runLabel{"ooo-switch", switchMHz, spec}
		checkStream(res, label, ref, o.trace)
		checkSwitch(res, label, o, b)
	}
	return res, nil
}

// checkStream asserts I1: the run consumed the same functional stream as
// the reference.
func checkStream(res *Result, label runLabel, ref, got funcTrace) {
	if !ref.equal(got) {
		res.violate("I1", "%s: functional stream diverged from reference: %d vs %d insts, hash %x vs %x, %d vs %d outs",
			label, got.seq, ref.seq, got.hash, ref.hash, len(got.out), len(ref.out))
	}
}

// checkSimpleAccounting asserts the simple pipeline's I4 identities: every
// fed instruction retires and makes exactly one I-cache access, and every
// memory op makes exactly one D-cache access.
func checkSimpleAccounting(res *Result, label runLabel, o *simpleObs) {
	if o.retired != o.fed {
		res.violate("I4", "%s: retired %d != fed %d", label, o.retired, o.fed)
	}
	if o.icAcc != o.fed {
		res.violate("I4", "%s: I-cache accesses %d != fed %d", label, o.icAcc, o.fed)
	}
	if o.dcAcc != o.memOps {
		res.violate("I4", "%s: D-cache accesses %d != memory ops %d", label, o.dcAcc, o.memOps)
	}
}

// checkBound asserts I2: observed time never exceeds the static bound,
// sub-task by sub-task and in total.
func checkBound(res *Result, label runLabel, subCycles []int64, total int64, b *wcet.Result) {
	for k, got := range subCycles {
		if got > b.SubTasks[k] {
			res.violate("I2", "%s: sub-task %d observed %d cycles > WCET %d",
				label, k, got, b.SubTasks[k])
		}
	}
	if total > b.Total {
		res.violate("I2", "%s: task observed %d cycles > WCET %d", label, total, b.Total)
	}
}

// checkSwitch asserts I3 (the EQ 2 overhead is charged exactly once and
// post-switch sub-tasks fit their bounds) and the complex core's I4
// conservation identities.
func checkSwitch(res *Result, label runLabel, o *switchObs, b *wcet.Result) {
	if want := o.switchAt + o.ovhd; o.start != want {
		res.violate("I3", "%s: switch at cycle %d returned origin %d, want %d (overhead %d)",
			label, o.switchAt, o.start, want, o.ovhd)
	}
	if o.nowAfter != o.start {
		res.violate("I3", "%s: clock reads %d immediately after switch, want origin %d (overhead mis-charged)",
			label, o.nowAfter, o.start)
	}
	if o.firstRetire >= 0 && o.firstRetire <= o.start {
		res.violate("I3", "%s: first post-switch instruction retired at %d, inside the drain window ending at %d (overhead double-booked)",
			label, o.firstRetire, o.start)
	}
	for k := o.switchMark; k < len(b.SubTasks); k++ {
		got, ok := o.subCycles[k]
		if !ok {
			continue
		}
		limit := b.SubTasks[k]
		if k == o.switchMark {
			// SwitchToSimple holds the first fetch to start+1 so the drain
			// window (atCycle, start] and simple-mode execution stay
			// disjoint. Relative to a fresh Rebase — whose origin cycle
			// carries the first fetch for free, the convention the WCET
			// regions are calibrated against — the segment is displaced one
			// cycle later, so the switch sub-task may read its bound plus
			// exactly that restart cycle from the post-overhead origin. The
			// runner charges the cycle to recovery time, never to the drain.
			limit++
		}
		if got > limit {
			res.violate("I3", "%s: post-switch sub-task %d observed %d cycles > WCET %d",
				label, k, got, limit)
		}
	}
	if tot := o.stats.Retired + o.stats.SimpleModeRetired; tot != o.fed {
		res.violate("I4", "%s: complex %d + simple-mode %d retirements != fed %d",
			label, o.stats.Retired, o.stats.SimpleModeRetired, o.fed)
	}
	if o.stats.ModeSwitches != 1 {
		res.violate("I4", "%s: %d mode switches recorded, want exactly 1", label, o.stats.ModeSwitches)
	}
	if o.stats.SimpleModeRetired == 0 {
		res.violate("I4", "%s: no simple-mode retirements after the switch", label)
	}
}
