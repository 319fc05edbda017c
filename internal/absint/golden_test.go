package absint_test

// Report-identity golden: the full analysis report — every FuncReport field
// plus the bound and memory-lint verdicts — over the six C-lab programs and
// 300 seeded conformance programs, hashed and pinned. Any change to the
// domain's data structures must leave this digest untouched. The test lives
// in the external package because conform reaches absint through wcet.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"visa/internal/absint"
	"visa/internal/cfg"
	"visa/internal/clab"
	"visa/internal/conform"
	"visa/internal/isa"
)

const goldenSeeds = 300

var goldenDigestFile = filepath.Join("testdata", "report.sha256")

func lenientGraph(tb testing.TB, prog *isa.Program) *cfg.Graph {
	tb.Helper()
	g, err := cfg.BuildWithOptions(prog, cfg.Options{AllowMissingBounds: true})
	if err != nil {
		tb.Fatalf("%s: cfg: %v", prog.Name, err)
	}
	return g
}

// goldenPrograms lists the corpus the digest covers, C-lab first.
func goldenPrograms(tb testing.TB) []*isa.Program {
	tb.Helper()
	var progs []*isa.Program
	for _, b := range clab.All() {
		prog, err := b.Program()
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for seed := uint64(1); seed <= goldenSeeds; seed++ {
		prog, err := conform.GenProgram(seed).Program()
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// renderReport writes every field of every FuncReport (maps in key order)
// followed by the ValidateBounds and MemLint verdicts.
func renderReport(w io.Writer, g *cfg.Graph, rep *absint.Report) {
	fmt.Fprintf(w, "program %s\n", g.Prog.Name)
	for _, name := range g.CallOrder {
		fr := rep.Funcs[name]
		if fr == nil {
			fmt.Fprintf(w, "func %s: none\n", name)
			continue
		}
		fmt.Fprintf(w, "func %s name=%s reachable=%v\n", name, fr.Name, fr.Reachable)
		dead := make([]absint.Edge, 0, len(fr.DeadEdges))
		for e, ok := range fr.DeadEdges {
			if ok {
				dead = append(dead, e)
			}
		}
		sort.Slice(dead, func(i, j int) bool {
			if dead[i].From != dead[j].From {
				return dead[i].From < dead[j].From
			}
			return dead[i].To < dead[j].To
		})
		fmt.Fprintf(w, " dead=%v\n", dead)
		for _, id := range sortedKeys(fr.LoopBound) {
			fmt.Fprintf(w, " loop %d bound=%d\n", id, fr.LoopBound[id])
		}
		for _, pc := range sortedKeys(fr.Writes) {
			fmt.Fprintf(w, " write %d %v\n", pc, fr.Writes[pc])
		}
		for _, pc := range sortedKeys(fr.Addrs) {
			a := fr.Addrs[pc]
			fmt.Fprintf(w, " addr %d %v size=%d\n", pc, a.Addr, a.Size)
		}
	}
	for _, f := range absint.ValidateBounds(g, rep) {
		fmt.Fprintf(w, "bound %+v\n", f)
	}
	for _, f := range absint.MemLint(g, rep) {
		fmt.Fprintf(w, "mem %+v\n", f)
	}
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func TestReportGolden(t *testing.T) {
	h := sha256.New()
	for _, prog := range goldenPrograms(t) {
		g := lenientGraph(t, prog)
		renderReport(h, g, absint.Analyze(g))
	}
	got := hex.EncodeToString(h.Sum(nil))
	raw, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Fatalf("analysis report digest changed:\n got  %s\n want %s\n"+
			"(a representation change must not move it; rewrite %s only for an intended precision change)",
			got, want, goldenDigestFile)
	}
}
