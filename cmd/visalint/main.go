// Command visalint runs the abstract-interpretation value analysis
// (internal/absint) as a standalone soundness lint: it validates every
// loop's #bound annotation against the derived iteration count, reports
// statically infeasible CFG edges, and flags memory accesses that resolve
// outside every legal segment.
//
// Usage:
//
//	visalint [-v] (benchname ... | file.c ... | all)
//
// The exit status is 0 when every program is clean; 1 when any annotation
// is understated, any loop has no usable bound, any access is provably out
// of segment, or a program fails to load; and 2 on a usage error (no
// program named, or an unknown flag).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"visa/internal/absint"
	"visa/internal/cfg"
	"visa/internal/clab"
	"visa/internal/isa"
	"visa/internal/minic"
)

func main() {
	verbose := flag.Bool("v", false, "print every bound finding, not just problems")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: visalint [-v] (benchname ... | file.c ... | all)")
		os.Exit(2)
	}
	targets := flag.Args()
	if len(targets) == 1 && targets[0] == "all" {
		targets = nil
		for _, b := range clab.All() {
			targets = append(targets, b.Name)
		}
	}

	bad := false
	for _, name := range targets {
		prog, err := load(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "visalint:", err)
			os.Exit(1)
		}
		if !lint(prog, *verbose) {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

func load(name string) (*isa.Program, error) {
	if b := clab.ByName(name); b != nil {
		return b.Program()
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return minic.Compile(name, string(src))
}

// lint analyzes one program and prints its findings; it returns false when
// the program has a soundness problem.
func lint(prog *isa.Program, verbose bool) bool {
	g, err := cfg.BuildWithOptions(prog, cfg.Options{AllowMissingBounds: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "visalint: %s: %v\n", prog.Name, err)
		return false
	}
	rep := absint.Analyze(g)

	ok := true
	fmt.Printf("%s:\n", prog.Name)

	counts := map[absint.BoundStatus]int{}
	for _, f := range absint.ValidateBounds(g, rep) {
		counts[f.Status]++
		switch f.Status {
		case absint.BoundUnsound, absint.BoundUnknown:
			ok = false
			fmt.Printf("  BOUND %v\n", f)
		case absint.BoundLoose, absint.BoundFilled:
			fmt.Printf("  bound %v\n", f)
		default:
			if verbose {
				fmt.Printf("  bound %v\n", f)
			}
		}
	}

	dead := 0
	for _, fn := range g.CallOrder {
		fr := rep.Funcs[fn]
		if fr == nil {
			continue
		}
		edges := make([]absint.Edge, 0, len(fr.DeadEdges))
		for e := range fr.DeadEdges {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			dead++
			fg := g.Funcs[fn]
			fmt.Printf("  dead edge %s: block %d (pc %d) -> block %d (pc %d): branch never taken this way\n",
				fn, e.From, fg.Blocks[e.From].LastPC(), e.To, fg.Blocks[e.To].Start)
		}
	}

	unresolved := 0
	for _, f := range absint.MemLint(g, rep) {
		if f.Kind == "out-of-segment" {
			ok = false
			fmt.Printf("  MEM %v\n", f)
		} else {
			unresolved++
			if verbose {
				fmt.Printf("  mem %v\n", f)
			}
		}
	}

	fmt.Printf("  summary: %d bounds ok, %d tightened, %d derived, %d unsound, %d unknown; %d dead edges; %d unresolved accesses\n",
		counts[absint.BoundOK], counts[absint.BoundLoose], counts[absint.BoundFilled],
		counts[absint.BoundUnsound], counts[absint.BoundUnknown], dead, unresolved)
	return ok
}
