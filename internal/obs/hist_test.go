package obs

import "testing"

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram("", []float64{1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewHistogram("h", nil); err == nil {
		t.Error("no boundaries accepted")
	}
	if _, err := NewHistogram("h", []float64{1, 1}); err == nil {
		t.Error("non-increasing boundaries accepted")
	}
	if _, err := NewHistogram("h", []float64{2, 1}); err == nil {
		t.Error("decreasing boundaries accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHistogram did not panic on invalid spec")
		}
	}()
	MustHistogram("h", []float64{3, 2})
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveInt(2)
	if h.Name() != "" || h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("nil histogram not a no-op")
	}
	if h.Record() != nil {
		t.Error("nil histogram exports a record")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := MustHistogram("lat", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 8 || h.Min() != 0.5 || h.Max() != 100 {
		t.Errorf("count/min/max = %d/%g/%g", h.Count(), h.Min(), h.Max())
	}
	if h.Sum() != 125 {
		t.Errorf("sum = %g, want 125", h.Sum())
	}
	// Bucket semantics: v <= bound, cumulative in the record.
	want := map[string]int64{
		"count":    8,
		"le_1":     2, // 0.5, 1
		"le_2":     4, // + 1.5, 2
		"le_4":     5, // + 3
		"le_8":     6, // + 8
		"overflow": 2, // 9, 100
	}
	rec := h.Record()
	for key, v := range want {
		if got := rec.Get(key); got != v {
			t.Errorf("%s = %v, want %d", key, got, v)
		}
	}
}

func TestHistogramRecord(t *testing.T) {
	h := MustHistogram("m", Exp2Boundaries(0, 3)) // 1,2,4,8
	h.ObserveInt(1)
	h.ObserveInt(5)
	rec := h.Record(F("kind", "hist"), F("label", "x"))
	if rec[0].Key != "kind" || rec[1].Key != "label" {
		t.Error("context fields must lead the record")
	}
	if rec.Get("name") != "m" || rec.Get("count") != int64(2) {
		t.Errorf("name/count = %v/%v", rec.Get("name"), rec.Get("name"))
	}
	if rec.Get("le_1") != int64(1) || rec.Get("le_8") != int64(2) || rec.Get("overflow") != int64(0) {
		t.Errorf("cumulative buckets wrong: %v", rec)
	}
}

func TestExp2Boundaries(t *testing.T) {
	b := Exp2Boundaries(0, 4)
	want := []float64{1, 2, 4, 8, 16}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("b[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	// Reversed arguments normalize; the ladder must stay a valid histogram.
	if _, err := NewHistogram("h", Exp2Boundaries(4, 0)); err != nil {
		t.Errorf("reversed-range ladder rejected: %v", err)
	}
}
