package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// printAttribution prints where a workload's host time goes: the parent
// span time measured, each layer's share as the ladder estimates it from
// its unit costs, and the residual that no rung explains (the parent's own
// time). eval-steady's line comes from the ladder's rt.RunProcessor spans
// and is printed on every traced run; the traced workload's line uses its
// traced-phase operations as the parent.
func printAttribution(w io.Writer, r *runner, lad *ladderResult) {
	fmt.Fprintln(w, "attribution (host time; layer shares estimated by the ladder, self = unexplained residual)")
	printShares(w, "eval-steady", fmt.Sprintf("rt.RunProcessor span time %.3f s", lad.rpSeconds),
		lad.rpSeconds, lad.rpParts, "rt self")
	if v, ok := lad.value("rt.self_frac"); ok {
		fmt.Fprintf(w, "rt.self_frac %s (the ladder explains %.1f%% of rt.RunProcessor)\n",
			formatValue(v), 100*(1-v))
	}

	var total float64
	for _, l := range r.latencies {
		total += l
	}
	ops := len(r.latencies)
	if ops == 0 {
		return
	}
	switch r.cfg.workload {
	case "wcet-analysis":
		perRound := callsPerBench * len(benchesFor(r.cfg)) // operations per round
		rounds := float64(ops) / float64(perRound)
		printShares(w, "wcet-analysis", fmt.Sprintf("analysis-call time per round %.3f s", total/rounds),
			total/rounds, lad.wcetRound, "self")
	case "conform-corpus":
		printShares(w, "conform-corpus", fmt.Sprintf("mean program time %.3f ms", 1000*total/float64(ops)),
			total/float64(ops), lad.conformProg, "engine and self")
	case "serve-closedloop":
		lats := append([]float64(nil), r.latencies...)
		p50 := median(lats)
		printShares(w, "serve-closedloop", fmt.Sprintf("median job latency %.3f ms", 1000*p50),
			p50, lad.serveJob, "serve self")
	}
}

// printShares prints "name = a% x, b% y, ..., r% self (of parent)".
func printShares(w io.Writer, name, parent string, total float64, parts []share, self string) {
	sorted := append([]share(nil), parts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].seconds > sorted[j].seconds })
	var b strings.Builder
	explained := 0.0
	for _, p := range sorted {
		fmt.Fprintf(&b, "%.1f%% %s, ", 100*p.seconds/total, p.layer)
		explained += p.seconds
	}
	fmt.Fprintf(&b, "%.1f%% %s", 100*(total-explained)/total, self)
	fmt.Fprintf(w, "%s = %s (of %s)\n", name, b.String(), parent)
}
