// Package clab provides the six C-lab real-time benchmarks the paper
// evaluates (Table 3): adpcm, cnt, fft, lms, mm, and srt. Each is written
// in mini-C in the "analyzability-friendly" style typical of hard real-time
// code (statically bounded loops, no irregular control flow), divided into
// the same number of sub-tasks as the paper by manually peeling chunks of
// iterations from the outermost loop (§5.3), and paired with a pure-Go
// reference implementation so tests can verify the compiled code's
// architectural results bit-for-bit.
//
// Input sizes are scaled down from the paper's so that 200-instance
// experiments complete in seconds under `go test`; this changes absolute
// cycle counts, not the qualitative ratios the evaluation reports (see
// DESIGN.md).
package clab

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/minic"
)

// lcgSeed is the deterministic seed all benchmarks use for input
// generation. The LCG (x = x*1103515245 + 12345, take bits 16..30) is
// implemented identically in mini-C and in the Go references.
const lcgSeed = 1234

// lcg mirrors the benchmarks' in-language generator.
type lcg struct{ s int32 }

func (l *lcg) next() int32 {
	l.s = l.s*1103515245 + 12345
	return (l.s >> 16) & 32767
}

// Benchmark is one C-lab kernel.
type Benchmark struct {
	Name     string
	SubTasks int // number of sub-tasks, as in Table 3
	Source   string

	// Ref computes the expected OUT/OUTF streams in pure Go.
	Ref func() ([]int32, []float64)

	once sync.Once
	prog *isa.Program
	err  error
}

// Program compiles the benchmark (cached).
func (b *Benchmark) Program() (*isa.Program, error) {
	b.once.Do(func() { b.prog, b.err = minic.Compile(b.Name, b.Source) })
	return b.prog, b.err
}

var registry = map[string]*Benchmark{}

func register(b *Benchmark) *Benchmark {
	// Benchmark sources carry a SEEDVAL placeholder for the input seed so
	// that harnesses can also re-bake sources with different inputs.
	b.Source = strings.ReplaceAll(b.Source, "SEEDVAL", strconv.Itoa(lcgSeed))
	registry[b.Name] = b
	return b
}

// SetSeed overwrites the benchmark's input-generator seed in a machine's
// data segment (after Reset, before Run). Varying the seed varies the input
// data while keeping the same code, which the WCET safety tests and the
// execution-time-variation experiments use.
func SetSeed(m *exec.Machine, seed int32) error {
	addr, ok := m.Prog.DataLabels["g_seed"]
	if !ok {
		return fmt.Errorf("clab: program %s has no seed global", m.Prog.Name)
	}
	return m.Mem.WriteWord(addr, uint32(seed))
}

// All returns the six benchmarks in the paper's order.
func All() []*Benchmark {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// ByName looks a benchmark up; nil if unknown.
func ByName(name string) *Benchmark { return registry[name] }

// Load resolves a command-line program argument: a benchmark name, or
// else the path of a mini-C source file, compiled under that path.
func Load(arg string) (*isa.Program, error) {
	if b := ByName(arg); b != nil {
		return b.Program()
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a benchmark (have %s) nor a readable file: %w",
			arg, strings.Join(Names(), " "), err)
	}
	return minic.Compile(arg, string(src))
}

// Names returns the registered benchmark names, sorted. Error messages and
// usage strings should derive their lists from here rather than hardcoding.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// chunks splits n iterations into k contiguous chunks whose sizes differ by
// at most one, returning the k+1 boundaries. Used to peel outer loops into
// balanced sub-tasks the way the paper describes.
func chunks(n, k int) []int {
	b := make([]int, k+1)
	base, rem := n/k, n%k
	pos := 0
	for i := 0; i < k; i++ {
		b[i] = pos
		pos += base
		if i < rem {
			pos++
		}
	}
	b[k] = pos
	return b
}
