package main

import (
	"fmt"
	"os"
	"sort"

	"visa/internal/absint"
	"visa/internal/cfg"
	"visa/internal/clab"
	"visa/internal/isa"
)

// runLint is the -lint mode: it lints every target ("all" names the six
// C-lab benchmarks) and returns the exit status — 1 when a program fails
// to load or has a soundness problem, else 0.
func runLint(targets []string, verbose bool) int {
	if len(targets) == 1 && targets[0] == "all" {
		targets = clab.Names()
	}
	status := 0
	for _, name := range targets {
		prog, err := clab.Load(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return 1
		}
		if !lint(prog, verbose) {
			status = 1
		}
	}
	return status
}

// lint analyzes one program and prints its findings; it returns false when
// the program has a soundness problem.
func lint(prog *isa.Program, verbose bool) bool {
	g, err := cfg.BuildWithOptions(prog, cfg.Options{AllowMissingBounds: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wcet: %s: %v\n", prog.Name, err)
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
