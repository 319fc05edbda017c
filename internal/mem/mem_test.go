package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"visa/internal/isa"
)

func TestWordRoundTrip(t *testing.T) {
	m := New()
	f := func(addrSeed uint16, v uint32) bool {
		addr := uint32(addrSeed) * 4
		if err := m.WriteWord(addr, v); err != nil {
			return false
		}
		got, err := m.ReadWord(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDoubleRoundTrip(t *testing.T) {
	m := New()
	f := func(addrSeed uint16, v float64) bool {
		addr := uint32(addrSeed) * 8
		if err := m.WriteDouble(addr, v); err != nil {
			return false
		}
		got, err := m.ReadDouble(addr)
		if err != nil {
			return false
		}
		return got == v || math.IsNaN(got) && math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignmentFaults(t *testing.T) {
	m := New()
	if _, err := m.ReadWord(2); err == nil {
		t.Error("misaligned word read accepted")
	}
	if err := m.WriteWord(3, 1); err == nil {
		t.Error("misaligned word write accepted")
	}
	if _, err := m.ReadDouble(4); err == nil {
		t.Error("misaligned double read accepted")
	}
	if err := m.WriteDouble(12, 1); err == nil {
		t.Error("misaligned double write accepted")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	// Adjacent words straddling a 64KB page boundary.
	base := uint32(1<<16) - 4
	if err := m.WriteWord(base, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(base+4, 0x11223344); err != nil {
		t.Fatal(err)
	}
	a, _ := m.ReadWord(base)
	b, _ := m.ReadWord(base + 4)
	if a != 0xAABBCCDD || b != 0x11223344 {
		t.Errorf("cross-page words: %#x %#x", a, b)
	}
}

func TestLoadImageAndReset(t *testing.T) {
	m := New()
	m.LoadImage(isa.DataBase, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	v, _ := m.ReadWord(isa.DataBase)
	if v != 0x04030201 {
		t.Errorf("image word = %#x", v)
	}
	m.Reset()
	v, _ = m.ReadWord(isa.DataBase)
	if v != 0 {
		t.Error("reset did not clear memory")
	}
}

// TestResetEqualsNew: after random word, double and image writes over
// several frames, Reset leaves every byte of every frame zero, so the
// memory reads as a fresh one, and it allocates nothing. The writes favour
// the bytes next to 4 KiB chunk edges, where a write that marked the wrong
// chunk would leave a stale byte behind. One round each writes only
// words, only doubles and only images, so each writer must mark its own
// chunks, and a last round mixes them.
func TestResetEqualsNew(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	frames := []uint32{0, 1, 2, isa.DataBase >> pageBits, (isa.StackTop - 1) >> pageBits}
	addr := func(align int) uint32 {
		base := frames[r.Intn(len(frames))] << pageBits
		var off int
		if r.Intn(2) == 0 {
			// Within one write of a chunk edge, on either side.
			edge := r.Intn(pageSize/chunkSize+1) * chunkSize
			off = edge - align + r.Intn(2)*align
			off = min(max(off, 0), pageSize-align)
		} else {
			off = r.Intn(pageSize/align) * align
		}
		return base + uint32(off)
	}
	m := New()
	for round, kinds := range [][]int{{0}, {1}, {2}, {0, 1, 2}} {
		for i := 0; i < 300; i++ {
			switch kinds[r.Intn(len(kinds))] {
			case 0:
				if err := m.WriteWord(addr(4), r.Uint32()|1); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := m.WriteDouble(addr(8), float64(r.Int63()|1)); err != nil {
					t.Fatal(err)
				}
			default:
				data := make([]byte, 1+r.Intn(3*chunkSize))
				for j := range data {
					data[j] = byte(1 + r.Intn(255))
				}
				m.LoadImage(addr(1), data)
			}
		}
		m.Reset()
		if len(m.frames) < 3 {
			t.Fatalf("round %d: writes touched %d frames, want at least 3", round, len(m.frames))
		}
		fresh := New()
		for _, f := range m.frames {
			if f.dirty != 0 {
				t.Fatalf("round %d: frame keeps dirty mask %#x after Reset", round, f.dirty)
			}
			for off, b := range f.b {
				if b != 0 {
					t.Fatalf("round %d: byte %#x of a frame reads %#x after Reset", round, off, b)
				}
			}
		}
		for i := 0; i < 1000; i++ {
			a := addr(8)
			got, _ := m.ReadWord(a)
			want, _ := fresh.ReadWord(a)
			gotF, _ := m.ReadDouble(a)
			wantF, _ := fresh.ReadDouble(a)
			if got != want || gotF != wantF {
				t.Fatalf("round %d: %#x reads %#x/%v after Reset, %#x/%v fresh", round, a, got, gotF, want, wantF)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		m.WriteWord(isa.DataBase, 1)
		m.Reset()
	}); n != 0 {
		t.Errorf("Reset allocates %.1f times per call, want 0", n)
	}
}

type fakeDev struct {
	lastWrite uint32
	lastVal   uint32
}

func (d *fakeDev) MMIORead(addr uint32) uint32     { return addr & 0xFF }
func (d *fakeDev) MMIOWrite(addr uint32, v uint32) { d.lastWrite, d.lastVal = addr, v }

func TestMMIORouting(t *testing.T) {
	m := New()
	dev := &fakeDev{}
	m.AttachDevice(dev)
	if v, _ := m.ReadWord(isa.MMIOWatchdog); v != isa.MMIOWatchdog&0xFF {
		t.Errorf("MMIO read routed wrong: %#x", v)
	}
	if err := m.WriteWord(isa.MMIOCycle, 77); err != nil {
		t.Fatal(err)
	}
	if dev.lastWrite != isa.MMIOCycle || dev.lastVal != 77 {
		t.Error("MMIO write not delivered")
	}
	// Below the MMIO base, plain memory.
	if err := m.WriteWord(isa.DataBase, 5); err != nil {
		t.Fatal(err)
	}
	if dev.lastVal == 5 {
		t.Error("regular write leaked to device")
	}
}
