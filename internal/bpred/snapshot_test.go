package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// trainRandom feeds g and t n random conditional and indirect branches.
func trainRandom(r *rand.Rand, g *Gshare, t *Indirect, n int) {
	for i := 0; i < n; i++ {
		pc := r.Intn(4096)
		if r.Intn(4) == 0 {
			t.Update(pc, r.Intn(64))
		} else {
			g.Update(pc, r.Intn(3) != 0)
		}
	}
}

// Property: predictors restored from snapshots predict and train exactly
// as the originals under any later branch sequence.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGshare(10)
		ind := NewIndirect(g)
		trainRandom(r, g, ind, r.Intn(2000))
		if r.Intn(5) == 0 {
			g.Flush()
			ind.Flush()
			trainRandom(r, g, ind, r.Intn(200))
		}
		var gs GshareSnapshot
		var is IndirectSnapshot
		g.Snapshot(&gs)
		ind.Snapshot(&is)

		g2 := NewGshare(10)
		ind2 := NewIndirect(g2)
		trainRandom(r, g2, ind2, 500) // state to overwrite
		g2.Restore(&gs)
		ind2.Restore(&is)
		for i := 0; i < 1000; i++ {
			pc := r.Intn(4096)
			if r.Intn(4) == 0 {
				t1, ok1 := ind.Predict(pc)
				t2, ok2 := ind2.Predict(pc)
				if ok1 != ok2 || ok1 && t1 != t2 {
					return false
				}
				target := r.Intn(64)
				ind.Update(pc, target)
				ind2.Update(pc, target)
			} else {
				if g.Predict(pc) != g2.Predict(pc) {
					return false
				}
				taken := r.Intn(3) != 0
				g.Update(pc, taken)
				g2.Update(pc, taken)
			}
		}
		g.Snapshot(&gs)
		ind.Snapshot(&is)
		var gs2 GshareSnapshot
		var is2 IndirectSnapshot
		g2.Snapshot(&gs2)
		ind2.Snapshot(&is2)
		return gs.Equal(&gs2) && is.Equal(&is2) && gs.Hash() == gs2.Hash() && is.Hash() == is2.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotEqual: gshare history bits above the index width and the
// targets of invalid indirect entries never reach a prediction, so Equal
// ignores them; anything else makes snapshots differ.
func TestSnapshotEqual(t *testing.T) {
	g := NewGshare(4)
	var a, b GshareSnapshot
	g.Snapshot(&a)
	g.history = 1 << 20
	g.Snapshot(&b)
	if !a.Equal(&b) || a.Hash() != b.Hash() {
		t.Error("history above the index mask made snapshots differ")
	}
	g.Update(3, true)
	g.Snapshot(&b)
	if a.Equal(&b) {
		t.Error("a trained counter and shifted history are Equal")
	}

	ind := NewIndirect(NewGshare(4))
	var x, y IndirectSnapshot
	ind.Snapshot(&x)
	ind.targets[5] = 77 // invalid entry
	ind.Snapshot(&y)
	if !x.Equal(&y) {
		t.Error("an invalid entry's target made snapshots differ")
	}
	ind.Update(5, 9)
	ind.Snapshot(&y)
	if x.Equal(&y) || len(y.entries) != 1 {
		t.Errorf("a valid entry is not in the snapshot: %+v", y.entries)
	}
}

// TestGshareFlushEqualsFresh: a flushed table is, counter for counter and
// in its history, the table of a fresh predictor, from a one-counter table
// up to the 64 Ki counters of the complex core.
func TestGshareFlushEqualsFresh(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bits := range []uint{0, 1, 4, 10, 16} {
		g := NewGshare(bits)
		trainRandom(r, g, NewIndirect(g), 5000)
		g.Flush()
		var flushed, fresh GshareSnapshot
		g.Snapshot(&flushed)
		NewGshare(bits).Snapshot(&fresh)
		if !flushed.Equal(&fresh) || flushed.history != 0 {
			t.Errorf("%d bits: flushed table differs from a fresh one", bits)
		}
		for i, c := range fresh.table {
			if c != 1 {
				t.Fatalf("%d bits: fresh counter %d is %d, want 1 (weakly not-taken)", bits, i, c)
			}
		}
	}
}
