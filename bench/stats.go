package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// now reads the host clock. Every host-time measurement in the benchmark
// goes through it, so the one wall-clock read carries the one allow.
func now() time.Time {
	//visa:allow(detlint): the benchmark measures host time by definition; no simulated result depends on it
	return time.Now()
}

// seconds returns the host time elapsed since t, in seconds.
func seconds(t time.Time) float64 { return now().Sub(t).Seconds() }

// quantile returns the p-quantile (0..1) of sorted by linear interpolation
// between order statistics.
func quantile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values (which it sorts in place).
func median(values []float64) float64 {
	sort.Float64s(values)
	return quantile(values, 0.5)
}

// quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) computes them (its default "exclusive"
// method), so calibration spreads printed here match the spreads an
// external checker computes from the same runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// tailPercentiles are the candidates for a latency tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for timings: the highest
// candidate percentile that still has at least ten samples beyond it. It
// returns that percentile, how many of the n samples lie beyond it, and
// false when even the median has fewer than ten beyond it.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		beyond := n - int(math.Ceil(float64(n)*p/100))
		if beyond >= 10 {
			return p, beyond, true
		}
	}
	return 0, 0, false
}

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// metric is one measured value.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is what one benchmark invocation reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

// writeResult prints every metric as "name value unit", then the one-line
// JSON object that must be the last line of standard output.
func writeResult(w io.Writer, res *result) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(res.Metrics))
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", m.Name, m.Value)
		}
		fmt.Fprintf(w, "%s %s %s\n", m.Name, formatValue(m.Value), m.Unit)
		ms[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
