package obs

import (
	"fmt"
	"strconv"
)

// Histogram is a deterministic fixed-boundary histogram: bucket boundaries
// are chosen up front (never rebalanced), so identical observation streams
// produce identical exports — the repository's reproducibility guarantee
// extends to distributional telemetry. Bucket i counts observations
// v <= Bounds[i]; values above the last boundary land in an overflow
// bucket. Count, sum, min, and max are tracked exactly.
//
// All methods are no-ops on a nil receiver.
type Histogram struct {
	name   string
	bounds []float64
	counts []int64 // len(bounds)+1; last is the overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over strictly increasing boundaries.
func NewHistogram(name string, bounds []float64) (*Histogram, error) {
	if name == "" {
		return nil, fmt.Errorf("obs: histogram with empty name")
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram %q with no boundaries", name)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram %q boundaries not strictly increasing at %d (%g after %g)",
				name, i, bounds[i], bounds[i-1])
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{name: name, bounds: b, counts: make([]int64, len(b)+1)}, nil
}

// MustHistogram is NewHistogram for fixed literal boundaries; it panics on
// an invalid specification (a programming error, not an input error).
func MustHistogram(name string, bounds []float64) *Histogram {
	h, err := NewHistogram(name, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Exp2Boundaries returns the powers of two 2^lo .. 2^hi — the standard
// fixed boundary ladder for cycle counts and latencies.
func Exp2Boundaries(lo, hi int) []float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	out := make([]float64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		v := 1.0
		for i := 0; i < e; i++ {
			v *= 2
		}
		out = append(out, v)
	}
	return out
}

// Observe records one value. O(len(bounds)), allocation-free.
//
//visa:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// ObserveInt records an integer observation (cycle counts).
func (h *Histogram) ObserveInt(v int64) { h.Observe(float64(v)) }

// Name returns the histogram's name ("" on nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (0 before any).
func (h *Histogram) Min() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 before any).
func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// fmtBound renders a boundary deterministically for record field names.
func fmtBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// Record renders the histogram as one ordered metrics record — the
// snapshot path for streamed (per-job, plan-order merged) export. Context
// fields (kind, label, bench, ...) are prepended in the order given.
func (h *Histogram) Record(context ...Field) Record {
	if h == nil {
		return nil
	}
	rec := make(Record, 0, len(context)+len(h.bounds)+6)
	rec = append(rec, context...)
	rec = append(rec,
		F("name", h.name),
		F("count", h.count),
		F("sum", h.sum),
		F("min", h.Min()),
		F("max", h.Max()),
	)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		rec = append(rec, F("le_"+fmtBound(b), cum))
	}
	rec = append(rec, F("overflow", h.counts[len(h.bounds)]))
	return rec
}
