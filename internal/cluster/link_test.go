package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leaktest"
	"repro/internal/retry"
	"repro/internal/serve"
)

// overLink is the Options mutation that puts a router on a link dialing
// through d.
func overLink(d *leaktest.Dials) func(*Options) {
	return func(o *Options) { o.HTTPClient = (&serve.Link{Dial: d.Dial}).Client() }
}

// TestRestartedReplicaCostsNoFailure: the connections the router kept
// into a replica die with it. The first request after its restart — a
// forward with a body, a bodyless probe — finds one, is replayed on a
// fresh connection and succeeds on that first call: no failed forward,
// no failed probe, nothing on the breaker, one dial each.
func TestRestartedReplicaCostsNoFailure(t *testing.T) {
	var d leaktest.Dials
	f := newFakeReplica(t)
	rt := newTestRouter(t, []*fakeReplica{f}, overLink(&d))
	ctx := context.Background()
	for i, first := range []struct {
		name string
		call func() error
	}{
		{"forward", func() error { _, err := rt.Forward(ctx, "req-after-restart", []byte("batch"), 0); return err }},
		{"probe", func() error { rt.ProbeAll(ctx); return nil }},
	} {
		if _, err := rt.Forward(ctx, fmt.Sprintf("req-before-%d", i), []byte("batch"), 0); err != nil {
			t.Fatal(err)
		}
		rt.ProbeAll(ctx)
		f.restart(t)
		before := d.Total.Load()
		if err := first.call(); err != nil {
			t.Fatalf("%s first after the restart: %v", first.name, err)
		}
		n := rt.table()[f.addr()]
		if n.failed.Load() != 0 || n.probeErr.Load() != 0 || n.probeFails.Load() != 0 || n.breaker.State() != retry.BreakerClosed || n.breaker.Trips() != 0 {
			t.Fatalf("%s first after the restart: %d failed forwards, %d failed probes (%d in a row), breaker %v with %d trips; want none of it",
				first.name, n.failed.Load(), n.probeErr.Load(), n.probeFails.Load(), n.breaker.State(), n.breaker.Trips())
		}
		if got := d.Total.Load() - before; got != 1 || d.Open.Load() != 1 {
			t.Fatalf("%s first after the restart: %d dials, %d connections open; want one replay on one fresh connection", first.name, got, d.Open.Load())
		}
	}
	rt.Close()
	if d.Open.Load() != 0 {
		t.Fatalf("%d connections open after Router.Close", d.Open.Load())
	}
}

// TestStalledOwnerEndsWithTheContextOnly: the socket must not give up
// before the caller does. Fifty forwards into a hung owner, ended by a
// deadline and by a cancel in turn, each return the context's error with
// the context ended, so ForwardTyped never reads a slow owner as a failed
// one and asks a second replica; each connection is closed, not kept,
// and the owner's handler sees each request go.
func TestStalledOwnerEndsWithTheContextOnly(t *testing.T) {
	var d leaktest.Dials
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	hang := make(chan struct{})
	defer close(hang)
	rt := newTestRouter(t, replicas, func(o *Options) {
		overLink(&d)(o)
		o.BreakerThreshold = 1000 // fifty timeouts in a row must not take the owner out of the route
	})
	const id = "req-stalled"
	var stalled, other *fakeReplica
	for _, f := range replicas {
		if f.addr() == rt.ring.Load().Owner(id) {
			f.set(func(f *fakeReplica) { f.hang = hang })
			stalled = f
		} else {
			other = f
		}
	}
	for i := range 50 {
		ctx, cancel := context.WithCancel(context.Background())
		want := context.Canceled
		if i%2 == 0 {
			ctx, cancel = context.WithTimeout(context.Background(), 3*time.Millisecond)
			want = context.DeadlineExceeded
		} else {
			go func() { // cancel once the forward has reached the owner
				for stalled.parkedTotal.Load() == stalled.abandoned.Load() && ctx.Err() == nil {
					time.Sleep(50 * time.Microsecond)
				}
				cancel()
			}()
		}
		var err error
		leaktest.Within(t, 5*time.Second, "the forward, which ends with its context,", func() { _, err = rt.Forward(ctx, id, []byte("batch"), 0) })
		if !errors.Is(err, want) || ctx.Err() == nil {
			t.Fatalf("forward %d = %v with ctx.Err() = %v, want the context's %v", i, err, ctx.Err(), want)
		}
		cancel()
		leaktest.Until(t, 5*time.Second, "the owner's handler saw every request it got end", func() bool { return stalled.abandoned.Load() == stalled.parkedTotal.Load() })
		// The one connection left is the successor's, idle since the boot probe.
		if d.Open.Load() != 1 {
			t.Fatalf("forward %d: %d connections open (failovers %d, other classified %d, stalled parked %d), want 1: one whose context fired is closed, not kept", i, d.Open.Load(), rt.Metrics().Failover.Load(), other.classifiedCount(), stalled.parkedTotal.Load())
		}
	}
	if got := rt.Metrics().Failover.Load(); got != 0 || other.classifiedCount() != 0 {
		t.Fatalf("failover counter = %d, successor classified %d: a stall is not a failure", got, other.classifiedCount())
	}
}

// TestConcurrentForwardsShareConnections: eight callers forwarding to
// one replica never hold more than eight connections between them —
// 1,000 requests, at most eight dials, the boot probe's included — and
// no request's bytes reach the replica mixed with another's.
func TestConcurrentForwardsShareConnections(t *testing.T) {
	body := func(id string) []byte { return bytes.Repeat([]byte(id+"\n"), 1500) } // ~21 KB, a 64-event batch's size
	f := &fakeReplica{gen: 1, healthy: true, ledger: make(map[string]string)}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/classify" {
			got, _ := io.ReadAll(r.Body)
			if !bytes.Equal(got, body(r.Header.Get(serve.RequestIDHeader))) {
				t.Errorf("%s arrived with a body that is not its own", r.Header.Get(serve.RequestIDHeader))
			}
		}
		f.handle(w, r)
	}))
	t.Cleanup(f.srv.Close)
	var d leaktest.Dials
	rt := newTestRouter(t, []*fakeReplica{f}, overLink(&d))
	const callers, each = 8, 125
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				id := fmt.Sprintf("req-%d-%03d", c, i)
				data, err := rt.Forward(context.Background(), id, body(id), 0)
				if err != nil || !strings.HasSuffix(string(data), ":"+id) {
					t.Errorf("%s answered %q, %v", id, data, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.Total.Load() > callers {
		t.Fatalf("%d dials for %d callers", d.Total.Load(), callers)
	}
	rt.Close()
	if d.Open.Load() != 0 {
		t.Fatalf("%d connections open after Router.Close", d.Open.Load())
	}
}
