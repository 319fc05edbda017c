// Package bpred implements the branch predictors from the paper: the
// complex processor's 2^16-entry gshare conditional predictor and 2^16-entry
// indirect-target table (§3.2), and the VISA's static
// backward-taken/forward-not-taken (BTFN) heuristic (§3.1).
package bpred

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// StaticTaken returns the BTFN static prediction for a conditional branch at
// instruction index pc with the given target: backward branches are
// predicted taken, forward branches not-taken.
func StaticTaken(pc int, target int32) bool { return int(target) <= pc }

// Gshare is McFarling's gshare predictor: a table of 2-bit saturating
// counters indexed by the branch PC XORed with the global history register.
type Gshare struct {
	bits    uint
	mask    uint32
	table   []uint8
	history uint32
}

// NewGshare builds a gshare predictor with 2^bits counters.
func NewGshare(bits uint) *Gshare {
	g := &Gshare{bits: bits, mask: 1<<bits - 1}
	g.table = make([]uint8, 1<<bits)
	fillWeak(g.table)
	return g
}

func (g *Gshare) index(pc int) uint32 {
	return (uint32(pc) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the conditional branch at pc.
func (g *Gshare) Predict(pc int) bool { return g.table[g.index(pc)] >= 2 }

// Update trains the predictor with the resolved direction and shifts the
// global history. The paper's pipeline updates history speculatively at
// fetch and repairs on a misprediction; since our timing model is driven by
// the correct path, updating at resolution is equivalent.
func (g *Gshare) Update(pc int, taken bool) {
	ctr := &g.table[g.index(pc)]
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
	g.history = g.history<<1 | b2u(taken)
}

// Flush clears the counters and history (misprediction injection, Figure 4).
func (g *Gshare) Flush() {
	fillWeak(g.table)
	g.history = 0
}

// fillWeak sets every counter to weakly not-taken. Each copy doubles the
// filled prefix, so a 64 Ki table takes 16 bulk copies instead of a loop
// of byte stores.
func fillWeak(t []uint8) {
	t[0] = 1
	for n := 1; n < len(t); n *= 2 {
		copy(t[n:], t[:n])
	}
}

// GshareSnapshot is a value copy of a Gshare's counters and history.
type GshareSnapshot struct {
	table   []uint8
	history uint32
	mask    uint32
}

// Snapshot copies g's state into s, reusing s's buffer.
func (g *Gshare) Snapshot(s *GshareSnapshot) {
	s.table = append(s.table[:0], g.table...)
	s.history, s.mask = g.history, g.mask
}

// Restore puts g back in the state s was taken from (s must come from a
// predictor of the same size).
func (g *Gshare) Restore(s *GshareSnapshot) {
	copy(g.table, s.table)
	g.history = s.history
}

// Equal reports whether s and o predict and train identically from here
// on: the same counters, and the same history bits under the index mask
// (shifted-out bits never reach an index).
func (s *GshareSnapshot) Equal(o *GshareSnapshot) bool {
	return s.history&s.mask == o.history&o.mask && bytes.Equal(s.table, o.table)
}

// Hash returns a hash of what Equal compares.
func (s *GshareSnapshot) Hash() uint64 {
	h := (uint64(len(s.table)) ^ uint64(s.history&s.mask)) * hashPrime
	t := s.table
	for len(t) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(t)) * hashPrime
		t = t[8:]
	}
	for _, b := range t {
		h = (h ^ uint64(b)) * hashPrime
	}
	return h
}

// hashPrime is the 64-bit FNV prime, the multiplier of the snapshot hashes.
const hashPrime = 1099511628211

// Indirect is the 2^16-entry indirect-target table, indexed the same way as
// the gshare predictor (PC XOR global history). It shares the gshare's
// history register, as in the paper.
type Indirect struct {
	g       *Gshare
	targets []int32
	valid   []bool
}

// NewIndirect builds an indirect-target table that indexes with g's history.
func NewIndirect(g *Gshare) *Indirect {
	return &Indirect{
		g:       g,
		targets: make([]int32, 1<<g.bits),
		valid:   make([]bool, 1<<g.bits),
	}
}

// Predict returns the predicted target of the indirect branch at pc, and
// whether the table has a prediction at all. Without a prediction, fetch
// stalls until the branch executes, as in simple mode.
func (t *Indirect) Predict(pc int) (int, bool) {
	i := t.g.index(pc)
	return int(t.targets[i]), t.valid[i]
}

// Update records the resolved target.
func (t *Indirect) Update(pc, target int) {
	i := t.g.index(pc)
	t.targets[i] = int32(target)
	t.valid[i] = true
}

// Flush invalidates all entries.
func (t *Indirect) Flush() {
	for i := range t.valid {
		t.valid[i] = false
	}
}

// IndirectSnapshot is a sparse value copy of an Indirect table: its valid
// entries only, in index order. The history register belongs to the
// Gshare the table indexes with, and is snapshotted there.
type IndirectSnapshot struct {
	entries []indirectEntry
}

type indirectEntry struct {
	index  uint32
	target int32
}

// Snapshot copies t's valid entries into s, reusing s's buffer.
func (t *Indirect) Snapshot(s *IndirectSnapshot) {
	s.entries = s.entries[:0]
	for i, v := range t.valid {
		if v {
			s.entries = append(s.entries, indirectEntry{uint32(i), t.targets[i]})
		}
	}
}

// Restore makes exactly s's entries valid, with s's targets. Invalid
// entries keep whatever target they held: Predict's callers never read a
// target without its valid bit.
func (t *Indirect) Restore(s *IndirectSnapshot) {
	clear(t.valid)
	for _, e := range s.entries {
		t.targets[e.index] = e.target
		t.valid[e.index] = true
	}
}

// Equal reports whether s and o hold the same valid entries with the same
// targets.
func (s *IndirectSnapshot) Equal(o *IndirectSnapshot) bool {
	return slices.Equal(s.entries, o.entries)
}

// Hash returns a hash of what Equal compares.
func (s *IndirectSnapshot) Hash() uint64 {
	h := uint64(len(s.entries))
	for _, e := range s.entries {
		h = (h ^ uint64(e.index)<<32 ^ uint64(uint32(e.target))) * hashPrime
	}
	return h
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
