// Package ooo implements the cycle-level timing model of the complex
// processor from paper §3.2: a dynamically scheduled 4-way superscalar with
// a 128-entry reorder buffer, 64-entry issue queue, 64-entry load/store
// queue, 4 pipelined universal function units, 2 data-cache ports, a
// 2^16-entry gshare conditional branch predictor, and a 2^16-entry
// indirect-target table. The seven stages are fetch, dispatch, issue,
// register read, execute/memory, writeback, and retire.
//
// The model is functional-first and constraint-based: the executor supplies
// the committed instruction stream, and the model computes each
// instruction's fetch/dispatch/issue/complete/retire cycles subject to
// structural, data, and control constraints. Mispredicted-path fetch is
// charged as a front-end stall from the mispredicted branch's resolution.
//
// The pipeline also implements the paper's simple mode (§3.2): after a
// missed checkpoint it drains and re-configures so that its timing directly
// implements the VISA — realized here by routing the remaining trace
// through the shared internal/simple engine operating on the same caches
// and memory bus, with the limited renaming of §3.2 still charged to the
// power model.
package ooo

import (
	"fmt"

	"visa/internal/bpred"
	"visa/internal/cache"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/memsys"
	"visa/internal/obs"
	"visa/internal/power"
	"visa/internal/simple"
)

// Injector is the fault-injection hook interface of the complex datapath
// (implemented by fault.Injector). Hooks are consulted only in complex
// mode: simple mode is the safety anchor and must stay unperturbed by the
// adversarial kinds. Every hook must be deterministic for a given call
// sequence, since the model's determinism guarantee passes through it.
type Injector interface {
	// FetchStall returns extra cycles to stall the front end before this
	// instruction's fetch (0 = none).
	FetchStall() int64
	// PoisonBranch reports whether to force this conditional branch to
	// mispredict.
	PoisonBranch() bool
	// LoadStall returns extra memory latency for this load (0 = none).
	LoadStall() int64
	// DrainStall reports whether to serialize this dispatch behind all
	// older completions (an injected reorder-buffer drain).
	DrainStall() bool
}

// MaxInjectCycles caps a single injected stall. It mirrors the simple
// pipeline's [0, worst] MissLatency clamp: the consumer enforces the
// contract rather than trusting the injector, so a misbehaving hook cannot
// stall the core longer than the fault taxonomy's cap (fault.MaxCycles —
// kept equal by a contract test in internal/fault). Negative returns are
// treated as no stall.
const MaxInjectCycles = 2000

// clampInject applies the [0, MaxInjectCycles] contract to a stall drawn
// from an Injector hook.
func clampInject(stall int64) int64 {
	if stall < 0 {
		return 0
	}
	if stall > MaxInjectCycles {
		return MaxInjectCycles
	}
	return stall
}

// Config sizes the complex core. Zero values take the paper's parameters.
type Config struct {
	FetchWidth  int
	RetireWidth int
	ROBSize     int
	IQSize      int
	LSQSize     int
	FUCount     int // pipelined universal FUs; bounds issue width
	CachePorts  int // load/store-queue and D-cache ports
	GshareBits  uint

	// SwitchOvhdCycles is the fixed overhead to drain the pipeline and
	// re-configure into simple mode (paper §2.1 item 1). The frequency
	// switch overhead is separate and charged by the DVS layer.
	SwitchOvhdCycles int64
}

// Default is the paper's complex-processor configuration.
var Default = Config{
	FetchWidth:       4,
	RetireWidth:      4,
	ROBSize:          128,
	IQSize:           64,
	LSQSize:          64,
	FUCount:          4,
	CachePorts:       2,
	GshareBits:       16,
	SwitchOvhdCycles: 64,
}

func (c Config) withDefaults() Config {
	d := Default
	if c.FetchWidth > 0 {
		d.FetchWidth = c.FetchWidth
	}
	if c.RetireWidth > 0 {
		d.RetireWidth = c.RetireWidth
	}
	if c.ROBSize > 0 {
		d.ROBSize = c.ROBSize
	}
	if c.IQSize > 0 {
		d.IQSize = c.IQSize
	}
	if c.LSQSize > 0 {
		d.LSQSize = c.LSQSize
	}
	if c.FUCount > 0 {
		d.FUCount = c.FUCount
	}
	if c.CachePorts > 0 {
		d.CachePorts = c.CachePorts
	}
	if c.GshareBits > 0 {
		d.GshareBits = c.GshareBits
	}
	if c.SwitchOvhdCycles > 0 {
		d.SwitchOvhdCycles = c.SwitchOvhdCycles
	}
	return d
}

// Mode says which datapath configuration is active.
type Mode int

// Operating modes.
const (
	ModeComplex Mode = iota
	ModeSimple
)

// widthSlot allocates one slot per cycle up to width for IN-ORDER stages
// (fetch, dispatch, retire): requests arrive with non-decreasing t, so a
// single moving cursor suffices.
type widthSlot struct {
	width int
	cycle int64
	used  int
}

func (w *widthSlot) take(t int64) int64 {
	if t > w.cycle {
		w.cycle, w.used = t, 0
	}
	if w.used >= w.width {
		w.cycle++
		w.used = 0
	}
	w.used++
	return w.cycle
}

func (w *widthSlot) reset(t int64) { w.cycle, w.used = t, 0 }

// oooSlotWindow bounds how far apart in cycles concurrently tracked issue
// slots can be; beyond it (a very long stall) old occupancy is forgotten,
// which is a negligible, documented approximation. It must stay a power of
// two: take indexes the ring with a mask, because a 64-bit divide on the
// sliding-window modulo was the single hottest operation in the feed-path
// CPU profile.
const oooSlotWindow = 8192

// oooSlot allocates per-cycle slots for OUT-OF-ORDER stages (issue, cache
// ports): a younger instruction may claim an earlier cycle than an older,
// stalled one, so per-cycle usage is tracked in a sliding ring.
type oooSlot struct {
	width int
	ring  []uint8 // always oooSlotWindow entries; counts bounded by width
	base  int64   // cycles [base, base+oooSlotWindow) are tracked
}

func newOOOSlot(width int) oooSlot {
	if width > 255 {
		// Per-cycle usage is counted in uint8 and never exceeds width.
		panic(fmt.Sprintf("ooo: stage width %d exceeds 255", width))
	}
	return oooSlot{width: width, ring: make([]uint8, oooSlotWindow)}
}

func (s *oooSlot) reset(t int64) {
	clear(s.ring)
	s.base = t
}

func (s *oooSlot) take(t int64) int64 {
	if t < s.base {
		t = s.base
	}
	for {
		if t >= s.base+oooSlotWindow {
			// The window slid entirely past its contents.
			s.reset(t)
		}
		if idx := t & (oooSlotWindow - 1); int(s.ring[idx]) < s.width {
			s.ring[idx]++
			return t
		}
		t++
	}
}

// occWindow is the width in cycles of the occupancy tracker's count ring.
// Must be a power of two (the ring is mask-indexed). Free-times further than
// occWindow beyond the tracked minimum spill to the (rarely touched) far
// list, so the window is a performance knob, not a correctness bound.
const occWindow = 8192

// occTracker models a structure whose entries are allocated in program
// order but freed OUT of order (issue queue: freed at issue; load/store
// queue: freed at retire). An allocation at time t needs fewer than `size`
// older entries still live, i.e. t must exceed the size-th largest
// free-time seen so far.
//
// Semantically it maintains the multiset S of the `size` largest free-times
// seen and exposes min(S). The first implementation kept S in a min-heap;
// its data-dependent sift compares were the single largest source of branch
// mispredicts in the whole feed path. Free-times arrive nearly sorted
// (they are pipeline-stage timestamps), so S is now a calendar: a count
// ring over the cycle window [minV, minV+occWindow) plus a far list for the
// rare outliers beyond it. A steady-state add is a handful of predictable
// branches, and the ring cursor advances by amortized O(cycles-per-inst)
// counter probes. The multiset evolution — and therefore every earliest()
// result — is bit-identical to the heap's.
type occTracker struct {
	size int
	n    int     // live entries in S
	minV int64   // min(S); valid once n == size
	cnt  []uint8 // occWindow counters: cnt[v&mask] = multiplicity of v, v in [minV, minV+occWindow)
	far  []int64 // members >= minV+occWindow, unsorted; far[:farN]
	farN int
}

func newOccTracker(size int) occTracker {
	if size > 255 {
		// The ring counts multiplicities in uint8; at most `size` members
		// can share one cycle. No paper-scale structure comes anywhere
		// near this, so reject rather than widen the hot array.
		panic(fmt.Sprintf("ooo: occupancy-tracked structure size %d exceeds 255", size))
	}
	return occTracker{
		size: size,
		cnt:  make([]uint8, occWindow),
		far:  make([]int64, size),
	}
}

func (o *occTracker) reset() {
	o.n = 0
	o.farN = 0
	clear(o.cnt)
}

// earliest returns the earliest cycle a new entry can be allocated.
func (o *occTracker) earliest() int64 {
	if o.n < o.size {
		return 0
	}
	return o.minV + 1
}

// add records a new entry's free-time.
func (o *occTracker) add(t int64) {
	if o.n < o.size {
		// Warmup: membership alone decides earliest() (it returns 0 until
		// the tracker fills), so values park unordered in far until the
		// fill transition builds the ring around the true minimum.
		o.far[o.farN] = t
		o.farN++
		o.n++
		if o.n == o.size {
			o.fill()
		}
		return
	}
	if t <= o.minV {
		// The new time would itself be the evicted minimum: S is unchanged.
		return
	}
	if t-o.minV < occWindow {
		o.cnt[t&(occWindow-1)]++
	} else {
		o.far[o.farN] = t
		o.farN++
	}
	// Evict one instance of the minimum. min(S) always lies inside the ring
	// window by construction, so the eviction is a counter decrement; only
	// when that cycle's count drains does the cursor move.
	i := o.minV & (occWindow - 1)
	o.cnt[i]--
	if o.cnt[i] == 0 {
		o.advance()
	}
}

// fill builds the ring at the warmup→steady transition: the minimum so far
// becomes the window base and every parked value lands in the ring or stays
// in far.
func (o *occTracker) fill() {
	minV := o.far[0]
	for _, v := range o.far[1:o.farN] {
		if v < minV {
			minV = v
		}
	}
	o.minV = minV
	keep := 0
	for _, v := range o.far[:o.farN] {
		if v-minV < occWindow {
			o.cnt[v&(occWindow-1)]++
		} else {
			o.far[keep] = v
			keep++
		}
	}
	o.farN = keep
}

// advance moves minV to the next member of S after the old minimum's cycle
// drained. Ring members are always smaller than far members (far starts at
// minV+occWindow), so the next nonzero counter is the new minimum; the scan
// is bounded by the window, and its total work over a run is bounded by
// total cycle advancement.
func (o *occTracker) advance() {
	limit := o.minV + occWindow
	for c := o.minV + 1; c < limit; c++ {
		if o.cnt[c&(occWindow-1)] != 0 {
			o.minV = c
			if o.farN != 0 {
				o.migrate()
			}
			return
		}
	}
	// Ring drained entirely: the remaining members all sit in far.
	minV := o.far[0]
	for _, v := range o.far[1:o.farN] {
		if v < minV {
			minV = v
		}
	}
	o.minV = minV
	o.migrate()
}

// migrate pulls far members that the advanced window now covers into the
// ring (swap-remove; far is unordered).
func (o *occTracker) migrate() {
	for i := 0; i < o.farN; {
		if v := o.far[i]; v-o.minV < occWindow {
			o.cnt[v&(occWindow-1)]++
			o.farN--
			o.far[i] = o.far[o.farN]
			continue
		}
		i++
	}
}

type storeRec struct {
	block    uint32
	complete int64
}

// Pipeline is the complex-core timing model.
type Pipeline struct {
	Cfg    Config
	ICache *cache.Cache
	DCache *cache.Cache
	Bus    *memsys.Bus

	Gshare   *bpred.Gshare
	Indirect *bpred.Indirect

	// Inject, when non-nil, perturbs complex-mode timing with deterministic
	// faults (see Injector). Simple mode never consults it.
	Inject Injector

	mode   Mode
	simple *simple.Pipeline

	// Front end: the fetch cursor, the pending redirect from the last
	// mispredicted branch, and the I-cache block being fetched from.
	fetchSlots widthSlot
	redirect   int64
	fetchBlock uint32
	haveBlock  bool

	// windows: the ROB allocates and frees in order (circular timestamp
	// buffer); the IQ and LSQ free out of order (occupancy trackers).
	// The trackers and slot rings are value fields — one flat Pipeline
	// allocation instead of six heap objects chased per fed instruction.
	robRetire []int64 // retire time of instruction i-ROBSize
	robIdx    int     // next robRetire slot (wraps at ROBSize)
	iqOcc     occTracker
	lsqOcc    occTracker

	dispatchSlots oooSlot
	issueSlots    oooSlot
	portSlots     oooSlot
	retireSlots   oooSlot

	// Architectural register readiness, the in-flight store window (cap
	// fixed at LSQSize), the latest completion, and the last retire cycle.
	intReady    [32]int64
	fpReady     [32]int64
	stores      []storeRec
	maxComplete int64
	lastRetire  int64

	act power.Activity

	// Stats
	BranchMispredicts int64
	IndirectMispreds  int64

	// Stats holds cumulative instrumentation counters; like the predictor
	// and cache state, Rebase preserves them so they span whole experiments.
	Stats Stats
}

// Stats are the complex core's cumulative instrumentation counters.
type Stats struct {
	// Retired counts instructions retired in complex mode.
	Retired int64
	// SimpleModeRetired counts instructions retired in simple mode (after a
	// missed checkpoint).
	SimpleModeRetired int64
	// ROBStalls / IQStalls / LSQStalls count dispatches delayed by a full
	// reorder buffer / issue queue / load-store queue.
	ROBStalls int64
	IQStalls  int64
	LSQStalls int64
	// ModeSwitches counts complex→simple reconfigurations (missed
	// checkpoints, §2.2).
	ModeSwitches int64
}

// RegisterObs registers the core's counters under prefix (e.g.
// "cnt.complex.pipe"), including the shared simple-mode engine's counters
// under prefix+".simple_mode". Sampling is lazy; Feed is untouched by
// observation.
func (p *Pipeline) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Counter(prefix+".retired", func() int64 { return p.Stats.Retired })
	reg.Counter(prefix+".branch_mispredicts", func() int64 { return p.BranchMispredicts })
	reg.Counter(prefix+".indirect_mispredicts", func() int64 { return p.IndirectMispreds })
	reg.Counter(prefix+".rob_stalls", func() int64 { return p.Stats.ROBStalls })
	reg.Counter(prefix+".iq_stalls", func() int64 { return p.Stats.IQStalls })
	reg.Counter(prefix+".lsq_stalls", func() int64 { return p.Stats.LSQStalls })
	reg.Counter(prefix+".mode_switches", func() int64 { return p.Stats.ModeSwitches })
	reg.Counter(prefix+".simple_mode.retired", func() int64 { return p.Stats.SimpleModeRetired })
	p.simple.RegisterObs(reg, prefix+".simple_mode")
}

// New builds a complex pipeline with its own predictors around the shared
// cache hierarchy.
func New(cfg Config, ic, dc *cache.Cache, bus *memsys.Bus) *Pipeline {
	cfg = cfg.withDefaults()
	g := bpred.NewGshare(cfg.GshareBits)
	p := &Pipeline{
		Cfg:       cfg,
		ICache:    ic,
		DCache:    dc,
		Bus:       bus,
		Gshare:    g,
		Indirect:  bpred.NewIndirect(g),
		robRetire: make([]int64, cfg.ROBSize),
		iqOcc:     newOccTracker(cfg.IQSize),
		lsqOcc:    newOccTracker(cfg.LSQSize),
		stores:    make([]storeRec, 0, cfg.LSQSize),
	}
	p.simple = simple.New(ic, dc, bus)
	p.simple.CountRenames = true // §3.2: limited renaming stays active
	p.Rebase(0)
	return p
}

// Mode returns the active mode.
func (p *Pipeline) Mode() Mode { return p.mode }

// SimpleEngine exposes the shared simple-mode engine (for configuration
// such as snippet cost).
func (p *Pipeline) SimpleEngine() *simple.Pipeline { return p.simple }

// Rebase restarts timing at the given cycle with an empty pipeline in
// complex mode. Predictor and cache state persist across tasks, as on real
// hardware; use FlushPredictors/cache flushes for misprediction injection.
func (p *Pipeline) Rebase(cycle int64) {
	p.mode = ModeComplex
	p.fetchSlots = widthSlot{width: p.Cfg.FetchWidth}
	if p.issueSlots.ring == nil {
		p.dispatchSlots = newOOOSlot(p.Cfg.FetchWidth)
		p.issueSlots = newOOOSlot(p.Cfg.FUCount)
		p.portSlots = newOOOSlot(p.Cfg.CachePorts)
		p.retireSlots = newOOOSlot(p.Cfg.RetireWidth)
	}
	p.fetchSlots.reset(cycle)
	p.dispatchSlots.reset(cycle)
	p.issueSlots.reset(cycle)
	p.portSlots.reset(cycle)
	p.retireSlots.reset(cycle)
	for i := range p.robRetire {
		p.robRetire[i] = cycle
	}
	p.iqOcc.reset()
	p.lsqOcc.reset()
	p.robIdx = 0
	p.redirect, p.maxComplete, p.lastRetire = cycle, cycle, cycle
	p.fetchBlock, p.haveBlock = 0, false
	// The store window keeps its backing array: a periodic-task harness
	// rebases once per instance, and re-allocating it each time showed up
	// in the engine allocation profile.
	p.stores = p.stores[:0]
	for i := range p.intReady {
		p.intReady[i] = cycle
		p.fpReady[i] = cycle
	}
	p.simple.Rebase(cycle)
}

// SwitchToSimple drains the pipeline and re-configures into simple mode
// (missed checkpoint, §2.2). It returns the cycle at which simple-mode
// execution begins: the drain point plus the fixed switch overhead.
func (p *Pipeline) SwitchToSimple(atCycle int64) int64 {
	start := atCycle + p.Cfg.SwitchOvhdCycles
	p.mode = ModeSimple
	p.Stats.ModeSwitches++
	// Rebase makes start the accounting origin (Now() == start, zero elapsed
	// simple-mode cycles), but on its own it would let the first fetch
	// complete AT start — inside the drain window (atCycle, start] — so the
	// switch overhead would effectively be a cycle short and that cycle
	// would count against both mode totals. Holding fetch to start+1 keeps
	// the drain and simple-mode execution disjoint: the overhead is charged
	// exactly once.
	p.simple.Rebase(start)
	p.simple.HoldFetch(start + 1)
	p.Bus.Reset()
	return start
}

// FlushPredictors clears the gshare and indirect-target tables (used with
// cache flushes to inject mispredictions, Figure 4).
func (p *Pipeline) FlushPredictors() {
	p.Gshare.Flush()
	p.Indirect.Flush()
}

// Now returns the retire cycle of the most recent instruction in the
// active mode.
func (p *Pipeline) Now() int64 {
	if p.mode == ModeSimple {
		return p.simple.Now()
	}
	return p.lastRetire
}

// TakeActivity returns and clears accumulated activity of the active mode.
// In simple mode the activity was accumulated by the shared simple engine
// (with renaming charged), which the power model prices using the complex
// core's structure sizes, per §5.2.
func (p *Pipeline) TakeActivity() power.Activity {
	if p.mode == ModeSimple {
		return p.simple.TakeActivity()
	}
	a := p.act
	p.act = power.Activity{}
	return a
}

// Feed times one dynamic instruction and returns its retire cycle.
//
//visa:hotpath
func (p *Pipeline) Feed(d *exec.DynInst) int64 {
	if p.mode == ModeSimple {
		p.Stats.SimpleModeRetired++
		return p.simple.Feed(d)
	}
	in := d.Inst
	cfg := &p.Cfg

	// --- Fetch ---
	ft := p.fetchSlots.take(p.redirect)
	p.act.Fetches++
	blk := p.ICache.Block(isa.InstAddr(int(d.PC)))
	if !p.haveBlock || blk != p.fetchBlock {
		p.act.ICacheAcc++
		if !p.ICache.Access(isa.InstAddr(int(d.PC))) {
			fill := p.Bus.Request(ft)
			p.fetchSlots.reset(fill)
			ft = p.fetchSlots.take(fill)
		}
		p.fetchBlock, p.haveBlock = blk, true
	}
	if p.Inject != nil {
		if stall := clampInject(p.Inject.FetchStall()); stall > 0 {
			// Injected front-end throttle: the fetch cursor stalls exactly as
			// on an I-cache fill.
			p.fetchSlots.reset(ft + stall)
			ft = p.fetchSlots.take(ft + stall)
		}
	}

	// --- Dispatch: rename, allocate ROB/IQ/LSQ ---
	dt := ft + 1
	if free := p.robRetire[p.robIdx]; free+1 > dt {
		dt = free + 1
		p.Stats.ROBStalls++
	}
	if e := p.iqOcc.earliest(); e > dt {
		dt = e
		p.Stats.IQStalls++
	}
	isMem := in.Op.IsMem() && d.Addr < isa.MMIOBase
	if isMem {
		if e := p.lsqOcc.earliest(); e > dt {
			dt = e
			p.Stats.LSQStalls++
		}
	}
	if p.Inject != nil && p.Inject.DrainStall() {
		// Injected ROB drain: dispatch waits for all older work to complete,
		// collapsing the out-of-order window for one instruction.
		if p.maxComplete+1 > dt {
			dt = p.maxComplete + 1
		}
	}
	dt = p.dispatchSlots.take(dt)
	p.act.Renames++
	p.act.IQWrites++
	p.act.ROBOps++
	if isMem {
		p.act.LSQOps++
	}

	// --- Issue: wait for operands, a FU issue slot, and (memory ops) a
	// cache port. Register read occupies the cycle after issue. ---
	it := dt + 1
	fl := in.Op.Deco()
	if fl&isa.DecoSrcIntRs != 0 {
		p.act.RegReads++
		if v := p.intReady[in.Rs]; v > it {
			it = v
		}
	}
	if fl&isa.DecoSrcIntRt != 0 {
		p.act.RegReads++
		if v := p.intReady[in.Rt]; v > it {
			it = v
		}
	}
	if fl&isa.DecoSrcIntRd != 0 {
		p.act.RegReads++
		if v := p.intReady[in.Rd]; v > it {
			it = v
		}
	}
	if fl&isa.DecoSrcFPRs != 0 {
		p.act.RegReads++
		if v := p.fpReady[in.Rs]; v > it {
			it = v
		}
	}
	if fl&isa.DecoSrcFPRt != 0 {
		p.act.RegReads++
		if v := p.fpReady[in.Rt]; v > it {
			it = v
		}
	}
	if fl&isa.DecoSrcFPRd != 0 {
		p.act.RegReads++
		if v := p.fpReady[in.Rd]; v > it {
			it = v
		}
	}
	lat := int64(in.Op.Latency())
	if in.Op == isa.MARK {
		// The sub-task snippet reads the cycle counter: fully serializing.
		if p.maxComplete > it {
			it = p.maxComplete
		}
		lat = p.simple.SnippetCycles
	}
	it = p.issueSlots.take(it)
	if isMem {
		it = p.portSlots.take(it)
		p.act.LSQOps++ // LSQ search
		p.act.DCacheAcc++
	}
	p.act.IQIssues++
	p.iqOcc.add(it)

	// --- Execute / memory ---
	regRead := int64(1)
	ct := it + regRead + lat
	if isMem {
		dblk := p.DCache.Block(d.Addr)
		if in.Op.Class() == isa.ClassLoad {
			// Store-to-load forwarding and conservative same-block ordering
			// against older in-flight stores.
			for i := len(p.stores) - 1; i >= 0; i-- {
				if p.stores[i].block == dblk {
					if p.stores[i].complete+1 > ct {
						ct = p.stores[i].complete + 1
					}
					break
				}
			}
			if !p.DCache.Access(d.Addr) {
				fill := p.Bus.Request(it + regRead)
				if fill > ct {
					ct = fill
				}
			}
			if p.Inject != nil {
				if stall := clampInject(p.Inject.LoadStall()); stall > 0 {
					// Injected miss latency: the load behaves as if its fill
					// came back stall cycles later, bus occupancy included.
					fill := p.Bus.Request(it+regRead) + stall
					if fill > ct {
						ct = fill
					}
				}
			}
		} else {
			// Stores complete at address generation; the write drains to
			// the cache after commit and does not stall the pipeline, but
			// a store miss still occupies the memory bus (contention).
			if !p.DCache.Access(d.Addr) {
				p.Bus.Request(ct)
			}
		}
	}
	if ct > p.maxComplete {
		p.maxComplete = ct
	}
	p.act.FUOps += lat
	p.act.Bypass++

	// --- Writeback / retire, in order ---
	rt := ct + 2
	if p.lastRetire > rt {
		rt = p.lastRetire
	}
	rt = p.retireSlots.take(rt)
	p.lastRetire = rt
	p.robRetire[p.robIdx] = rt
	if p.robIdx++; p.robIdx == cfg.ROBSize {
		p.robIdx = 0
	}
	if isMem {
		p.lsqOcc.add(rt)
	}
	p.act.ROBOps++
	p.Stats.Retired++

	// --- Destinations. With speculative wakeup and full bypass, a
	// dependent issues lat cycles after its producer; loads wake consumers
	// when data returns (completion). ---
	ready := it + lat
	if in.Op.Class() == isa.ClassLoad {
		ready = ct
	}
	if fl&isa.DecoIntDestRd != 0 && in.Rd != isa.RegZero {
		p.act.RegWrites++
		p.intReady[in.Rd] = ready
	} else if fl&isa.DecoIntDestRA != 0 {
		p.act.RegWrites++
		p.intReady[isa.RegRA] = ready
	}
	if fl&isa.DecoFPDest != 0 {
		p.act.RegWrites++
		p.fpReady[in.Rd] = ready
	}
	if isMem && in.Op.Class() == isa.ClassStore {
		// The window holds at most LSQSize in-flight stores. At capacity the
		// oldest slides out via copy-down (re-slicing off the front would
		// strand capacity); below it the slice extends within its fixed
		// LSQSize backing array from New. Either way: no allocation.
		if n := len(p.stores); n == cfg.LSQSize {
			copy(p.stores, p.stores[1:])
			p.stores[n-1] = storeRec{p.DCache.Block(d.Addr), ct}
		} else {
			p.stores = p.stores[:n+1]
			p.stores[n] = storeRec{p.DCache.Block(d.Addr), ct}
		}
	}

	// --- Control flow ---
	switch in.Op.Class() {
	case isa.ClassBranch:
		p.act.BPred++
		pred := p.Gshare.Predict(int(d.PC))
		if p.Inject != nil && p.Inject.PoisonBranch() {
			pred = !d.Taken // poisoned predictor state: forced mispredict
		}
		p.Gshare.Update(int(d.PC), d.Taken)
		if pred != d.Taken {
			p.BranchMispredicts++
			p.redirectFetch(ct + 1)
		}
	case isa.ClassJR:
		p.act.BPred++
		target, ok := p.Indirect.Predict(int(d.PC))
		p.Indirect.Update(int(d.PC), int(d.NextPC))
		if !ok || target != int(d.NextPC) {
			p.IndirectMispreds++
			p.redirectFetch(ct + 1)
		}
	case isa.ClassJump:
		// Direct targets come from the BTB merged with the I-cache.
	}
	return rt
}

// redirectFetch restarts fetch at the branch-resolution point.
func (p *Pipeline) redirectFetch(at int64) {
	if at > p.redirect {
		p.redirect = at
	}
	p.fetchSlots.reset(at)
	p.haveBlock = false
}
