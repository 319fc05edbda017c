// Command wcet runs the static worst-case timing analyzer (paper §3.3) and
// prints per-sub-task WCET bounds, optionally across all DVS operating
// points, plus the cache categorization summary of Table 2.
//
// Usage:
//
//	wcet [-mhz 1000] [-sweep] [-categories] [-verify-bounds] [-bundle path] (benchname | file.c)
package main

import (
	"flag"
	"fmt"
	"os"

	"visa/internal/absint"
	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/isa"
	"visa/internal/minic"
	"visa/internal/power"
	"visa/internal/wcet"
)

func main() {
	mhz := flag.Int("mhz", 1000, "analysis frequency in MHz")
	sweep := flag.Bool("sweep", false, "analyze at all 37 DVS operating points")
	cats := flag.Bool("categories", false, "print the caching categorization summary (Table 2)")
	bundle := flag.String("bundle", "", "write a timing-safe task bundle (program + WCET table, §1.2) to this path")
	verify := flag.Bool("verify-bounds", false, "validate #bound annotations with the value analysis and use derived bounds and path pruning")
	flag.Parse()

	var prog *isa.Program
	var err error
	if flag.NArg() == 1 {
		if b := clab.ByName(flag.Arg(0)); b != nil {
			prog, err = b.Program()
		} else {
			var src []byte
			src, err = os.ReadFile(flag.Arg(0))
			if err == nil {
				prog, err = minic.Compile(flag.Arg(0), string(src))
			}
		}
	} else {
		fmt.Fprintln(os.Stderr, "usage: wcet [-mhz N] [-sweep] [-categories] [-verify-bounds] [-bundle path] (benchname | file.c)")
		os.Exit(2)
	}
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

	if *bundle != "" {
		tbl, err := core.BuildWCETTable(an)
		if err != nil {
			fatal(err)
		}
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
		for _, pt := range power.Points() {
			res, err := an.Analyze(pt.FMHz)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8d %-8.2f %-14d %-12.1f\n",
				pt.FMHz, pt.Volts, res.Total, float64(res.Total)*1000/float64(pt.FMHz)/1000)
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
