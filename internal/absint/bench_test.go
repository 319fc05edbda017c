package absint_test

import (
	"testing"

	"visa/internal/absint"
	"visa/internal/clab"
)

// BenchmarkValueAnalysis runs the value analysis over each C-lab program's
// graph, the work wcet.NewWithValueAnalysis adds to a plain wcet.New.
func BenchmarkValueAnalysis(b *testing.B) {
	for _, bench := range clab.All() {
		prog, err := bench.Program()
		if err != nil {
			b.Fatal(err)
		}
		g := lenientGraph(b, prog)
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				absint.Analyze(g)
			}
		})
	}
}
