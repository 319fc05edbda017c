package conform

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"visa/internal/clab"
	"visa/internal/isa"
)

// TestEncodeRoundTrip: every program the toolchain emits survives the
// binary encoding. The six benchmarks and the tier-conform corpus (campaign
// seed 1, 200 programs) decode to exactly the instructions and data they
// were encoded from, so the analyzed program is the one a bundle ships.
func TestEncodeRoundTrip(t *testing.T) {
	type named struct {
		name string
		prog *isa.Program
	}
	var progs []named
	for _, b := range clab.All() {
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, named{b.Name, p})
	}
	c := Campaign{Seed: 1, N: 200}
	for i := 0; i < c.programs(); i++ {
		seed := c.ProgramSeed(i)
		p, err := GenProgram(seed).Program()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, named{fmt.Sprintf("gen %#x", seed), p})
	}
	for _, np := range progs {
		data, err := np.prog.EncodeProgram()
		if err != nil {
			t.Errorf("%s: %v", np.name, err)
			continue
		}
		got, err := isa.DecodeProgram(data)
		if err != nil {
			t.Errorf("%s: %v", np.name, err)
			continue
		}
		if !slices.Equal(got.Code, np.prog.Code) {
			for pc := range np.prog.Code {
				if pc >= len(got.Code) || got.Code[pc] != np.prog.Code[pc] {
					t.Errorf("%s: pc %d decodes to %v, want %v", np.name, pc, got.Code[min(pc, len(got.Code)-1)], np.prog.Code[pc])
					break
				}
			}
		}
		if !bytes.Equal(got.Data, np.prog.Data) {
			t.Errorf("%s: data differs after the round trip", np.name)
		}
	}
}
