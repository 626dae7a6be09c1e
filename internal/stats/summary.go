package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over float64
// samples. The zero value is empty; add samples with Add and call
// Finalize (or any query method, which finalizes lazily) before querying.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF builds a CDF from the given samples.
func NewCDF(samples []float64) *CDF {
	c := &CDF{samples: append([]float64(nil), samples...)}
	c.Finalize()
	return c
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// Finalize sorts the samples; queries after Finalize are O(log n).
func (c *CDF) Finalize() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.samples) }

// At returns P(X <= v), the fraction of samples at or below v.
func (c *CDF) At(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.Finalize()
	idx := sort.SearchFloat64s(c.samples, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(c.samples))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.Finalize()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	pos := q * float64(len(c.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.samples[lo]
	}
	frac := pos - float64(lo)
	return c.samples[lo]*(1-frac) + c.samples[hi]*frac
}

// Points samples the CDF at n evenly spaced sample indices and returns
// (value, cumulative fraction) pairs, useful for plotting a text CDF.
func (c *CDF) Points(n int) [][2]float64 {
	c.Finalize()
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.samples) {
		n = len(c.samples)
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(c.samples) / n
		if idx > len(c.samples) {
			idx = len(c.samples)
		}
		v := c.samples[idx-1]
		pts = append(pts, [2]float64{v, float64(idx) / float64(len(c.samples))})
	}
	return pts
}

// Histogram counts integer-valued observations.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add increments the count of bucket v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Count returns the observations in bucket v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the share of observations in bucket v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// FractionAtMost returns the share of observations in buckets <= v.
func (h *Histogram) FractionAtMost(v int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for b, c := range h.counts {
		if b <= v {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// Buckets returns the bucket values in ascending order.
func (h *Histogram) Buckets() []int {
	out := make([]int, 0, len(h.counts))
	for b := range h.counts {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Counter tallies string-keyed occurrences and can report the top-k.
type Counter struct {
	counts map[string]int
	total  int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int)}
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int) {
	c.counts[key] += n
	c.total += n
}

// Count returns the tally for key.
func (c *Counter) Count(key string) int { return c.counts[key] }

// Total returns the sum of all tallies.
func (c *Counter) Total() int { return c.total }

// Distinct returns the number of distinct keys.
func (c *Counter) Distinct() int { return len(c.counts) }

// KV is a key with its count.
type KV struct {
	Key   string
	Count int
}

// Top returns up to k entries sorted by descending count; ties break by
// ascending key so output is deterministic.
func (c *Counter) Top(k int) []KV {
	all := make([]KV, 0, len(c.counts))
	for key, n := range c.counts {
		all = append(all, KV{Key: key, Count: n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Keys returns all keys in deterministic (sorted) order.
func (c *Counter) Keys() []string {
	out := make([]string, 0, len(c.counts))
	for k := range c.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Ratio returns num/den as float64, or 0 when den is 0.
func Ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
