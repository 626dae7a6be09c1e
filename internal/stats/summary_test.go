package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.At(2.5); got != 0.5 {
		t.Errorf("At(2.5) = %v, want 0.5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(1) != 0 {
		t.Error("empty CDF At should be 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF Quantile should be NaN")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(0.5); got != 30 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
}

func TestCDFAddLazyFinalize(t *testing.T) {
	var c CDF
	c.Add(3)
	c.Add(1)
	c.Add(2)
	if got := c.At(1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("At(1) = %v, want 1/3", got)
	}
	c.Add(0.5)
	if got := c.At(0.75); got != 0.25 {
		t.Errorf("At(0.75) after re-add = %v, want 0.25", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := NewCDF(xs)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) returned %d points", len(pts))
	}
	last := pts[len(pts)-1]
	if last[1] != 1.0 {
		t.Errorf("final cumulative fraction = %v, want 1", last[1])
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] }) {
		t.Error("points not sorted by value")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 1, 1, 2, 5} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(1) != 3 {
		t.Errorf("Count(1) = %d", h.Count(1))
	}
	if got := h.Fraction(1); got != 0.6 {
		t.Errorf("Fraction(1) = %v", got)
	}
	if got := h.FractionAtMost(2); got != 0.8 {
		t.Errorf("FractionAtMost(2) = %v", got)
	}
	if got := h.Buckets(); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("Buckets = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Fraction(1) != 0 || h.FractionAtMost(10) != 0 {
		t.Error("empty histogram fractions should be 0")
	}
}

func TestCounterTopDeterminism(t *testing.T) {
	c := NewCounter()
	c.AddN("b", 2)
	c.AddN("a", 2)
	c.AddN("z", 5)
	top := c.Top(3)
	if top[0].Key != "z" || top[1].Key != "a" || top[2].Key != "b" {
		t.Errorf("Top order = %v, want z,a,b (ties by key)", top)
	}
	if got := c.Top(1); len(got) != 1 {
		t.Errorf("Top(1) returned %d entries", len(got))
	}
	if c.Total() != 9 || c.Distinct() != 3 {
		t.Errorf("Total=%d Distinct=%d", c.Total(), c.Distinct())
	}
}

func TestCounterKeysSorted(t *testing.T) {
	c := NewCounter()
	for _, k := range []string{"x", "m", "a"} {
		c.Add(k)
	}
	keys := c.Keys()
	if !sort.StringsAreSorted(keys) {
		t.Errorf("Keys not sorted: %v", keys)
	}
}

func TestPercentAndRatio(t *testing.T) {
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio div0 = %v", got)
	}
}
