package fault

import (
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"branch-poison:250", Spec{Kind: BranchPoison, Rate: 250}},
		{"dcache-miss:100:300", Spec{Kind: DCacheMiss, Rate: 100, Cycles: 300}},
		{"fetch-stall:1000:64:7", Spec{Kind: FetchStall, Rate: 1000, Cycles: 64, Seed: 7}},
		{"rob-drain:0", Spec{Kind: ROBDrain}},
		{"cache-flush:500", Spec{Kind: CacheFlush, Rate: 500}},
		{"mem-jitter:900:0:123", Spec{Kind: MemJitter, Rate: 900, Seed: 123}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String always renders the full form, which must parse back to the
		// same spec.
		back, err := ParseSpec(got.String())
		if err != nil || back != got {
			t.Errorf("round trip %q -> %q -> %+v (%v)", c.in, got.String(), back, err)
		}
		// The text form is the same spelling.
		text, err := got.MarshalText()
		var fromText Spec
		if err != nil || string(text) != got.String() || fromText.UnmarshalText([]byte(c.in)) != nil || fromText != got {
			t.Errorf("text round trip %q -> %q -> %+v (%v)", c.in, text, fromText, err)
		}
	}
	if _, err := (Spec{Kind: MemJitter, Rate: 5000}).MarshalText(); err == nil {
		t.Error("an invalid spec encoded")
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, in := range []string{
		"",
		"branch-poison",             // no rate
		"warp-core-breach:100",      // unknown kind
		"branch-poison:-1",          // negative rate
		"branch-poison:1001",        // rate above scale
		"dcache-miss:100:-5",        // negative cycles
		"dcache-miss:100:9999",      // cycles above cap
		"dcache-miss:100:64:7:tail", // too many fields
		"dcache-miss:many",          // non-numeric rate
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestKindTaxonomy(t *testing.T) {
	if len(Kinds()) != int(numKinds) {
		t.Fatalf("Kinds() has %d entries, want %d", len(Kinds()), numKinds)
	}
	paranoid := 0
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("kind %v not valid", k)
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("kind %v does not round-trip: %v, %v", k, back, err)
		}
		if k.ParanoidSafe() {
			paranoid++
		}
	}
	if !CacheFlush.ParanoidSafe() || !MemJitter.ParanoidSafe() || paranoid != 2 {
		t.Error("paranoid-safe set must be exactly {cache-flush, mem-jitter}")
	}
	if Kind(-1).Valid() || Kind(int(numKinds)).Valid() {
		t.Error("out-of-range kinds reported valid")
	}
}

// drain exercises every hook n times and returns the injected count.
func drain(j *Injector, n int) int64 {
	for i := 0; i < n; i++ {
		j.FetchStall()
		j.PoisonBranch()
		j.LoadStall()
		j.DrainStall()
		j.FlushInstance()
		j.MissLatency(100)
	}
	return j.Count()
}

// TestDeterminism: the same spec yields the identical fault stream; a
// different seed (or kind) yields a different one.
func TestDeterminism(t *testing.T) {
	spec := Spec{Kind: DCacheMiss, Rate: 300, Cycles: 50, Seed: 42}
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(spec)
	var sa, sb []int64
	for i := 0; i < 500; i++ {
		sa = append(sa, a.LoadStall())
		sb = append(sb, b.LoadStall())
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, sa[i], sb[i])
		}
	}
	if a.Count() == 0 {
		t.Fatal("rate 300/1000 injected nothing in 500 draws")
	}
	other, _ := New(Spec{Kind: DCacheMiss, Rate: 300, Cycles: 50, Seed: 43})
	same := true
	for i := 0; i < 500; i++ {
		if other.LoadStall() != sa[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced the identical stream")
	}
}

// TestKindIsolation: only the spec's own hook fires; all others are no-ops.
func TestKindIsolation(t *testing.T) {
	for _, k := range Kinds() {
		j, err := New(Spec{Kind: k, Rate: RateScale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j.FetchStall() != 0 && k != FetchStall {
			t.Errorf("%v fired FetchStall", k)
		}
		if j.PoisonBranch() && k != BranchPoison {
			t.Errorf("%v fired PoisonBranch", k)
		}
		if j.LoadStall() != 0 && k != DCacheMiss {
			t.Errorf("%v fired LoadStall", k)
		}
		if j.DrainStall() && k != ROBDrain {
			t.Errorf("%v fired DrainStall", k)
		}
		if j.FlushInstance() && k != CacheFlush {
			t.Errorf("%v fired FlushInstance", k)
		}
		if j.MissLatency(100) != 100 && k != MemJitter {
			t.Errorf("%v perturbed MissLatency", k)
		}
		if drain(j, 50) == 0 {
			t.Errorf("%v at rate %d injected nothing", k, RateScale)
		}
	}
}

// TestMissLatencyNeverExceedsWorst: the paranoid jitter kind must stay
// within [0, worst] for any draw — the WCET-safety-by-construction claim.
func TestMissLatencyNeverExceedsWorst(t *testing.T) {
	j, err := New(Spec{Kind: MemJitter, Rate: RateScale, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, worst := range []int64{0, 1, 7, 100, 1000} {
		for i := 0; i < 2000; i++ {
			got := j.MissLatency(worst)
			if got < 0 || got > worst {
				t.Fatalf("MissLatency(%d) = %d out of [0,%d]", worst, got, worst)
			}
		}
	}
}

// TestRateEndpoints: rate 0 injects nothing, full rate injects at every
// decision of the spec's kind.
func TestRateEndpoints(t *testing.T) {
	zero, err := New(Spec{Kind: BranchPoison, Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if drain(zero, 1000) != 0 {
		t.Error("rate 0 injected faults")
	}
	full, _ := New(Spec{Kind: BranchPoison, Rate: RateScale})
	for i := 0; i < 100; i++ {
		if !full.PoisonBranch() {
			t.Fatal("rate 1000/1000 skipped a decision")
		}
	}
}

func TestTakeCount(t *testing.T) {
	j, err := New(Spec{Kind: ROBDrain, Rate: RateScale})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.DrainStall()
	}
	if j.Take() != 5 {
		t.Error("Take did not report the interval count")
	}
	if j.Take() != 0 {
		t.Error("second Take not zero")
	}
	j.DrainStall()
	if j.Take() != 1 || j.Count() != 6 {
		t.Error("Take/Count disagree after new faults")
	}
}

// TestNilInjectorHooks: all hooks are safe no-ops on a nil *Injector, the
// disabled configuration of the timing models.
func TestNilInjectorHooks(t *testing.T) {
	var j *Injector
	if j.FetchStall() != 0 || j.PoisonBranch() || j.LoadStall() != 0 ||
		j.DrainStall() || j.FlushInstance() || j.MissLatency(100) != 100 ||
		j.Count() != 0 || j.Take() != 0 {
		t.Error("nil injector hooks not inert")
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(1, 2, 3)
	if a != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed not deterministic")
	}
	if a == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed ignores coordinate order")
	}
	if a == DeriveSeed(2, 2, 3) {
		t.Error("DeriveSeed ignores the base")
	}
}

func TestNewRejectsBadSpec(t *testing.T) {
	if _, err := New(Spec{Kind: Kind(99), Rate: 10}); err == nil {
		t.Error("New accepted an invalid kind")
	}
	if _, err := New(Spec{Kind: DCacheMiss, Rate: 10, Cycles: MaxCycles + 1}); err == nil {
		t.Error("New accepted cycles above cap")
	}
}
