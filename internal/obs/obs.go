// Package obs is what a node's and a router's GET /metrics render: the
// latency Histogram their hot paths observe into, and a Registry of
// families, each declaring its series against the values it reads at
// scrape time. Scrape is the tree's one writer of the text exposition
// format: integers as %d, floats as %g, series in declaration order.
// Every Server and Router owns its Registry; none is process-global.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBounds are the histogram bucket upper bounds in seconds,
// roughly exponential from 10µs to 1s. Classification of one event is
// microseconds of work, so the low buckets carry the signal; the high
// ones catch queueing under overload.
var latencyBounds = [...]float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation; the last bucket is +Inf. The zero value is ready.
type Histogram struct {
	counts [len(latencyBounds) + 1]atomic.Uint64
	sumNS  atomic.Uint64
	n      atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(latencyBounds) && s > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Label renders one label pair, its value quoted: Label("node", "a:1")
// is `node="a:1"`. A label set is its pairs joined by commas.
func Label(name, value string) string { return name + "=" + strconv.Quote(value) }

// Bool is a 0/1 gauge's value.
func Bool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Registry is the ordered list of a server's families. Declaring is
// safe while a scrape runs. The zero value is ready.
type Registry struct {
	mu       sync.Mutex
	families []func(*Scrape) // guarded by mu
}

// Family declares series: emit adds them to each scrape, in order,
// with the values and label sets of that moment.
func (r *Registry) Family(emit func(*Scrape)) {
	r.mu.Lock()
	r.families = append(r.families, emit)
	r.mu.Unlock()
}

// WriteTo renders every family, in declaration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	var s Scrape
	for _, emit := range families {
		emit(&s)
	}
	return s.buf.WriteTo(w)
}

// ServeHTTP answers GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.WriteTo(w)
}

// Scrape is one rendering of a Registry in progress.
type Scrape struct{ buf bytes.Buffer }

// Uint adds the line `name{labels} v`.
func (s *Scrape) Uint(name, labels string, v uint64) {
	fmt.Fprintf(&s.buf, "%s %d\n", key(name, labels), v)
}

// Float adds the line `name{labels} v`.
func (s *Scrape) Float(name, labels string, v float64) {
	fmt.Fprintf(&s.buf, "%s %g\n", key(name, labels), v)
}

// Histogram adds h's cumulative buckets, sum in seconds and count.
func (s *Scrape) Histogram(name, labels string, h *Histogram) {
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(latencyBounds) {
			le = strconv.FormatFloat(latencyBounds[i], 'g', -1, 64)
		}
		s.Uint(name+"_bucket", strings.TrimPrefix(labels+","+Label("le", le), ","), cum)
	}
	s.Float(name+"_sum", labels, float64(h.sumNS.Load())/float64(time.Second))
	s.Uint(name+"_count", labels, h.n.Load())
}

// Buckets adds a histogram of integer observations from a snapshot:
// per-bucket counts (not cumulative), one per bound and one for +Inf.
func (s *Scrape) Buckets(name, labels string, bounds, counts []uint64, sum, n uint64) {
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatUint(bounds[i], 10)
		}
		s.Uint(name+"_bucket", strings.TrimPrefix(labels+","+Label("le", le), ","), cum)
	}
	s.Uint(name+"_sum", labels, sum)
	s.Uint(name+"_count", labels, n)
}

func key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}
