package obs

import (
	"strings"
	"testing"
	"time"
)

// TestHistogram checks bucket routing and the exposition invariants.
func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	h.Observe(2 * time.Second) // lands in +Inf
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	var reg Registry
	reg.Family(func(s *Scrape) { s.Histogram("x", `stage="s"`, &h) })
	var out strings.Builder
	reg.WriteTo(&out)
	for _, want := range []string{
		"x_bucket{stage=\"s\",le=\"1e-05\"} 1\n",
		"x_bucket{stage=\"s\",le=\"0.0005\"} 2\n",
		"x_bucket{stage=\"s\",le=\"+Inf\"} 3\n",
		"x_sum{stage=\"s\"} 2.000305\n",
		"x_count{stage=\"s\"} 3\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRegistryOrder: families render in declaration order with what
// they read at scrape time, labels quoted in the order given.
func TestRegistryOrder(t *testing.T) {
	var reg Registry
	n := uint64(1)
	reg.Family(func(s *Scrape) { s.Uint("a_total", "", n) })
	reg.Family(func(s *Scrape) {
		for i := uint64(0); i < n; i++ {
			s.Uint("b", Label("node", "h:1")+","+Label("state", "half-open"), i)
		}
		s.Float("c_seconds", `k="v"`, 0.25)
	})
	reg.Family(func(s *Scrape) { s.Buckets("d", "", []uint64{1, 2}, []uint64{1, 0, 2}, 7, 3) })
	n = 2
	var out strings.Builder
	reg.WriteTo(&out)
	want := `a_total 2
b{node="h:1",state="half-open"} 0
b{node="h:1",state="half-open"} 1
c_seconds{k="v"} 0.25
d_bucket{le="1"} 1
d_bucket{le="2"} 1
d_bucket{le="+Inf"} 3
d_sum 7
d_count 3
`
	if out.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out.String(), want)
	}
}
