// Command wcet is the static-analysis front end. By default it runs the
// worst-case timing analyzer (paper §3.3) and prints per-sub-task WCET
// bounds, optionally across all DVS operating points, plus the cache
// categorization summary of Table 2. Every bound it prints or bundles
// includes the D-cache pad the harness charges (rt.NewSetup), so for a
// C-lab benchmark it equals Table 3's.
//
// Usage:
//
//	wcet [-mhz 1000] [-sweep] [-categories] [-verify-bounds] [-bundle path] (benchname | file.c)
//	wcet -lint [-v] (benchname ... | file.c ... | all)
//
// -verify-bounds runs the abstract-interpretation value analysis
// (internal/absint) first and times the program with its derived bounds and
// path pruning. -lint runs that analysis alone, as a soundness lint: it
// validates every loop's #bound annotation against the derived iteration
// count, reports statically infeasible CFG edges, and flags memory accesses
// that resolve outside every legal segment; -v prints every bound finding,
// not just problems. The -lint exit status is 0 when every program is
// clean; 1 when any annotation is understated, any loop has no usable
// bound, any access is provably out of segment, or a program fails to
// load; and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"visa/internal/absint"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/rt"
	"visa/internal/wcet"
)

const usage = `usage: wcet [-mhz N] [-sweep] [-categories] [-verify-bounds] [-bundle path] (benchname | file.c)
       wcet -lint [-v] (benchname ... | file.c ... | all)`

func main() {
	mhz := flag.Int("mhz", 1000, "analysis frequency in MHz")
	sweep := flag.Bool("sweep", false, "analyze at all 37 DVS operating points")
	cats := flag.Bool("categories", false, "print the caching categorization summary (Table 2)")
	bundle := flag.String("bundle", "", "write a timing-safe task bundle (program + WCET table, §1.2) to this path")
	verify := flag.Bool("verify-bounds", false, "validate #bound annotations with the value analysis and use derived bounds and path pruning")
	lintMode := flag.Bool("lint", false, "run the value analysis as a soundness lint over every named program")
	verbose := flag.Bool("v", false, "with -lint: print every bound finding, not just problems")
	flag.Parse()

	if *lintMode && flag.NArg() > 0 {
		os.Exit(runLint(flag.Args(), *verbose))
	}
	if *lintMode || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	prog, err := clab.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	var an *wcet.Analyzer
	if *verify {
		var findings []absint.BoundFinding
		an, findings, err = wcet.NewWithValueAnalysis(prog)
		if err != nil {
			fatal(err)
		}
		for _, f := range findings {
			if f.Status != absint.BoundOK {
				fmt.Printf("bound %v\n", f)
			}
		}
		fmt.Printf("verified %d loop bounds\n", len(findings))
	} else {
		an, err = wcet.New(prog)
		if err != nil {
			fatal(err)
		}
	}
	// Every bound below includes the D-cache pad, exactly as the harness
	// charges it (Table 3).
	setup, err := rt.NewSetup(an)
	if err != nil {
		fatal(err)
	}
	tbl := setup.Table

	if *bundle != "" {
		data, err := core.EncodeBundle(&core.Bundle{Program: prog, Table: tbl})
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*bundle, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote timing-safe bundle %s (%d bytes: %d instructions + %d-point WCET table)\n",
			*bundle, len(data), len(prog.Code), len(tbl.Points))
	}

	if *cats {
		counts := map[string]int{}
		for _, c := range an.Cats {
			counts[c.Cat.String()]++
		}
		fmt.Println("caching categorizations (Table 2): m=always-miss, fm=first-miss, h=always-hit")
		for _, k := range []string{"m", "fm", "h"} {
			fmt.Printf("  %-3s %6d instructions\n", k, counts[k])
		}
	}

	if *sweep {
		fmt.Printf("%-8s %-8s %-14s %-12s\n", "MHz", "V", "WCET cycles", "WCET us")
		for i, pt := range tbl.Points {
			var total int64
			for _, c := range tbl.Cycles[i] {
				total += c
			}
			fmt.Printf("%-8d %-8.2f %-14d %-12.1f\n",
				pt.FMHz, pt.Volts, total, float64(total)*1000/float64(pt.FMHz)/1000)
		}
		return
	}

	res, err := an.Analyze(*mhz)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s @ %d MHz: total WCET %d cycles (%.1f us), miss penalty %d cycles\n",
		prog.Name, *mhz, res.Total, float64(res.Total)*1000/float64(*mhz)/1000, res.Penalty)
	for i, c := range res.SubTasks {
		fmt.Printf("  sub-task %2d: %10d cycles (%8.1f us)\n",
			i, c, float64(c)*1000/float64(*mhz)/1000)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wcet:", err)
	os.Exit(1)
}
