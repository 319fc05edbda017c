package absint_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"visa/internal/absint"
	"visa/internal/clab"
	"visa/internal/wcet"
)

// TestAnalyzeConcurrent runs the analysis on one shared graph from two
// goroutines and checks both reports against a serial run: all scratch
// belongs to the call, none to the graph or the package.
func TestAnalyzeConcurrent(t *testing.T) {
	prog, err := clab.ByName("adpcm").Program()
	if err != nil {
		t.Fatal(err)
	}
	g := lenientGraph(t, prog)
	render := func() string {
		var b strings.Builder
		renderReport(&b, g, absint.Analyze(g))
		return b.String()
	}
	want := render()
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = render()
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s != want {
			t.Errorf("goroutine %d: report differs from the serial run", i)
		}
	}
}

// TestValueAnalysisConcurrent builds value-analysis WCET analyzers for two
// benchmarks at once, as the repo benchmark's wcet-analysis workload does,
// and checks findings and bounds against serial builds.
func TestValueAnalysisConcurrent(t *testing.T) {
	names := []string{"cnt", "srt"}
	build := func(name string) (string, error) {
		prog, err := clab.ByName(name).Program()
		if err != nil {
			return "", err
		}
		an, findings, err := wcet.NewWithValueAnalysis(prog)
		if err != nil {
			return "", err
		}
		res, err := an.Analyze(1000)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v\n%+v", findings, *res), nil
	}
	want := make([]string, len(names))
	for i, name := range names {
		s, err := build(name)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	got := make([]string, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			got[i], errs[i] = build(name)
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("%s: concurrent build differs from serial:\n got  %s\n want %s", name, got[i], want[i])
		}
	}
}
