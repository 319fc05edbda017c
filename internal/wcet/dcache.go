package wcet

import (
	"fmt"

	"visa/internal/isa"
)

// Static D-cache analysis. The paper's toolset had a data-cache module that
// was not integrated at publication time, so WCET was padded with
// trace-derived miss counts (§3.3, "future work includes re-integrating the
// D-cache module"). This file provides that integration, in the same
// persistence style as the instruction-cache analysis:
//
//   - The set of data blocks a task can touch is bounded statically: the
//     initialized/declared data segment plus the worst-case stack window,
//     computed from frame-allocation instructions along the deepest call
//     chain.
//   - If every cache set is touched by at most `assoc` distinct blocks,
//     every data reference is first-miss at task scope: the analyzer
//     charges one miss per touched block per sub-task region (each region
//     is analyzed cold, consistent with recovery-mode semantics) and the
//     path simulation keeps data references as hits.
//   - Otherwise the analysis degrades safely: every data reference is
//     treated as a miss in the path simulation (always-miss), and no pad
//     is applied.
//
// This trades the profile pad's tightness for a bound that needs no traces
// at all. SetDCachePad (the paper's approach) remains available; the last
// caller wins.

// StaticDCacheResult reports what the static data-cache analysis derived.
type StaticDCacheResult struct {
	// DataBytes and StackBytes bound the touched regions.
	DataBytes  int
	StackBytes int
	// Blocks is the number of distinct data blocks in the touched regions.
	Blocks int64
	// Fits reports whether the working set is persistent (per-set distinct
	// blocks <= associativity).
	Fits bool
	// Refined reports that the value analysis bounded every data access, so
	// the touched set covers only the proven access ranges instead of the
	// whole data segment.
	Refined bool
}

// stackSlack bounds the caller-save spill area one call site can push
// beyond its frame (all temporaries of both register files).
const stackSlack = 34 * 8

// UseStaticDCache switches the analyzer from profile-derived padding to the
// static data-cache analysis and returns what it derived.
func (a *Analyzer) UseStaticDCache() (StaticDCacheResult, error) {
	res := StaticDCacheResult{DataBytes: len(a.Prog.Data)}
	stack, err := a.worstStackBytes()
	if err != nil {
		return res, err
	}
	res.StackBytes = stack

	// Collect distinct touched blocks per cache set.
	bb := uint32(a.CacheCfg.BlockBytes)
	sets := uint32(a.CacheCfg.Sets())
	perSet := map[uint32]map[uint32]bool{}
	touch := func(lo, hi uint32) { // [lo, hi)
		for blk := lo / bb; blk <= (hi-1)/bb; blk++ {
			set := blk % sets
			if perSet[set] == nil {
				perSet[set] = map[uint32]bool{}
			}
			perSet[set][blk] = true
		}
	}
	// Data segment: with value analysis, only the proven access ranges are
	// touched; otherwise (or when any data access is unbounded) the whole
	// segment is assumed touched.
	if len(a.Prog.Data) > 0 {
		ranges := []byteRange{{isa.DataBase, isa.DataBase + uint32(len(a.Prog.Data))}}
		if a.valueRep != nil {
			if rs, ok := a.dataAccessRanges(); ok {
				ranges = rs
				res.Refined = true
			}
		}
		for _, r := range ranges {
			touch(r.lo, r.hi)
		}
	}
	if stack > 0 {
		touch(isa.StackTop-uint32(stack), isa.StackTop)
	}

	res.Fits = true
	//visa:allow(detlint): commutative sum and a monotone flag; order-independent
	for _, blocks := range perSet {
		res.Blocks += int64(len(blocks))
		if len(blocks) > a.CacheCfg.Assoc {
			res.Fits = false
		}
	}

	a.staticDC = true
	a.staticDCFits = res.Fits
	if res.Fits {
		for i := range a.dcPad {
			a.dcPad[i] = res.Blocks
		}
	} else {
		for i := range a.dcPad {
			a.dcPad[i] = 0 // every access charged in the path simulation
		}
	}
	a.sumMemo = map[sumKey]summary{}
	a.fnMemo = map[fnKey]int64{}
	a.partMemo = map[partKey]*loopParts{}
	return res, nil
}

// worstStackBytes bounds the stack window: the deepest call chain's summed
// frame allocations plus per-call caller-save slack. Frames are recognized
// from the compiler's prologue (addi r29, r29, -N as the first
// instruction); hand-written functions without that shape contribute the
// slack only.
func (a *Analyzer) worstStackBytes() (int, error) {
	memo := map[string]int{}
	for _, name := range a.Graph.CallOrder { // callees first
		fg := a.Graph.Funcs[name]
		frame := 0
		if first := a.Prog.Code[fg.Fn.Start]; first.Op == isa.ADDI &&
			first.Rd == isa.RegSP && first.Rs == isa.RegSP && first.Imm < 0 {
			frame = int(-first.Imm)
		}
		deepest := 0
		for _, b := range fg.Blocks {
			if b.CallTo == "" {
				continue
			}
			callee, ok := memo[b.CallTo]
			if !ok {
				return 0, fmt.Errorf("wcet: call order broken at %s -> %s", name, b.CallTo)
			}
			if callee+stackSlack > deepest {
				deepest = callee + stackSlack
			}
		}
		memo[name] = frame + deepest
	}
	main, ok := memo["main"]
	if !ok {
		// No main: take the worst function (library-style analysis).
		//visa:allow(detlint): max over values; order-independent
		for _, v := range memo {
			if v > main {
				main = v
			}
		}
	}
	return main, nil
}
