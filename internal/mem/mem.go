// Package mem provides the flat byte-addressable data memory shared by the
// functional executor, plus the memory-mapped device page that hosts the
// watchdog counter, cycle counter, and frequency registers described in the
// paper (§2.2, §5.1).
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"visa/internal/isa"
)

const pageBits = 16
const pageSize = 1 << pageBits

// A frame's dirty mask has one bit per chunk of 1<<chunkBits bytes: 16
// chunks of 4 KiB per 64 KiB frame. Every write is aligned to its size
// and no larger than a chunk, so a write never crosses a chunk.
const chunkBits = 12
const chunkSize = 1 << chunkBits

// frame is one page of memory plus the chunks written since the last Reset.
// The bytes are a separate exact 64 KiB allocation: a frame struct holding
// them inline would be rounded up to the next 8 KiB size class.
type frame struct {
	b     []byte
	dirty uint16
}

// mark records that bytes [off, off+n) of the frame were written.
func (f *frame) mark(off, n int) {
	for c := off >> chunkBits; c <= (off+n-1)>>chunkBits; c++ {
		f.dirty |= 1 << c
	}
}

// Device receives loads and stores addressed at or above isa.MMIOBase. The
// VISA run-time framework implements it to expose the watchdog and cycle
// counters to task code.
type Device interface {
	MMIORead(addr uint32) uint32
	MMIOWrite(addr uint32, v uint32)
}

// tlbSize is the size of the direct-mapped page-translation cache in front
// of the page map. The executor's working set is a handful of pages (data
// image, stack top), so a small cache turns nearly every access into one
// compare instead of a map probe.
const tlbSize = 8

// Memory is a sparse paged byte-addressable memory, little-endian.
type Memory struct {
	pages map[uint32]*frame
	// frames lists every allocated page frame in allocation order, so Reset
	// can zero them with a deterministic walk instead of a map iteration.
	frames []*frame
	dev    Device

	// Direct-mapped page cache (tlbKey[i] is valid iff tlbVal[i] != nil).
	// Entries stay valid across Reset: pages are zeroed in place, never
	// replaced, so a cached translation can only go stale if the map entry
	// itself disappeared — which never happens.
	tlbKey [tlbSize]uint32
	tlbVal [tlbSize]*frame
}

// New returns an empty memory with no device attached.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*frame)}
}

// AttachDevice routes MMIO-page accesses to dev.
func (m *Memory) AttachDevice(dev Device) { m.dev = dev }

// Reset drops all contents (the device is kept). Page frames are zeroed in
// place and reused rather than released: a periodic-task harness resets the
// machine hundreds of times per experiment, and reallocating the working
// set each time dominated the engine-level allocation profile. Only the
// chunks written since the last Reset are zeroed; the rest are still zero.
func (m *Memory) Reset() {
	for _, f := range m.frames {
		for d := f.dirty; d != 0; d &= d - 1 {
			c := bits.TrailingZeros16(d) << chunkBits
			clear(f.b[c : c+chunkSize])
		}
		f.dirty = 0
	}
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base uint32, data []byte) {
	for len(data) > 0 {
		f := m.page(base)
		off := int(base) & (pageSize - 1)
		n := copy(f.b[off:], data)
		f.mark(off, n)
		data = data[n:]
		base += uint32(n)
	}
}

func (m *Memory) page(addr uint32) *frame {
	key := addr >> pageBits
	i := key % tlbSize
	if f := m.tlbVal[i]; f != nil && m.tlbKey[i] == key {
		return f
	}
	f, ok := m.pages[key]
	if !ok {
		f = &frame{b: make([]byte, pageSize)}
		m.pages[key] = f
		m.frames = append(m.frames, f)
	}
	m.tlbKey[i], m.tlbVal[i] = key, f
	return f
}

// AlignmentError reports a misaligned access.
type AlignmentError struct {
	Addr uint32
	Size int
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("misaligned %d-byte access at %#x", e.Size, e.Addr)
}

func (m *Memory) isMMIO(addr uint32) bool { return addr >= isa.MMIOBase && m.dev != nil }

// ReadWord reads a 32-bit little-endian word.
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, &AlignmentError{addr, 4}
	}
	if m.isMMIO(addr) {
		return m.dev.MMIORead(addr), nil
	}
	f := m.page(addr)
	off := int(addr) & (pageSize - 1)
	return binary.LittleEndian.Uint32(f.b[off : off+4]), nil
}

// WriteWord writes a 32-bit little-endian word.
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	if addr%4 != 0 {
		return &AlignmentError{addr, 4}
	}
	if m.isMMIO(addr) {
		m.dev.MMIOWrite(addr, v)
		return nil
	}
	f := m.page(addr)
	off := int(addr) & (pageSize - 1)
	binary.LittleEndian.PutUint32(f.b[off:off+4], v)
	f.dirty |= 1 << (off >> chunkBits)
	return nil
}

// ReadDouble reads a float64. The address must be 8-byte aligned, which also
// guarantees it does not straddle a page.
func (m *Memory) ReadDouble(addr uint32) (float64, error) {
	if addr%8 != 0 {
		return 0, &AlignmentError{addr, 8}
	}
	f := m.page(addr)
	off := int(addr) & (pageSize - 1)
	return math.Float64frombits(binary.LittleEndian.Uint64(f.b[off : off+8])), nil
}

// WriteDouble writes a float64 at an 8-byte-aligned address.
func (m *Memory) WriteDouble(addr uint32, v float64) error {
	if addr%8 != 0 {
		return &AlignmentError{addr, 8}
	}
	f := m.page(addr)
	off := int(addr) & (pageSize - 1)
	binary.LittleEndian.PutUint64(f.b[off:off+8], math.Float64bits(v))
	f.dirty |= 1 << (off >> chunkBits)
	return nil
}
