package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/leaktest"
)

// serveBatches forwards n distinct IDs through the router and returns
// the response body each one got — the byte-identity reference for
// retransmit checks.
func serveBatches(t *testing.T, rt *Router, n int) map[string][]byte {
	t.Helper()
	bodies := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("req-%03d", i)
		data, err := rt.Forward(context.Background(), id, []byte("batch-"+id), 0)
		if err != nil {
			t.Fatalf("forward %s: %v", id, err)
		}
		bodies[id] = data
	}
	return bodies
}

// retransmitAll replays every served ID and asserts byte-identical
// answers with zero new classifications anywhere in the fleet.
func retransmitAll(t *testing.T, rt *Router, replicas []*fakeReplica, bodies map[string][]byte) {
	t.Helper()
	before := 0
	for _, f := range replicas {
		before += f.classifiedCount()
	}
	for id, want := range bodies {
		got, err := rt.Forward(context.Background(), id, []byte("batch-"+id), 0)
		if err != nil {
			t.Fatalf("retransmit %s: %v", id, err)
		}
		if string(got) != string(want) {
			t.Fatalf("retransmit %s diverged:\n got %q\nwant %q", id, got, want)
		}
	}
	after := 0
	for _, f := range replicas {
		after += f.classifiedCount()
	}
	if after != before {
		t.Fatalf("retransmit storm re-classified %d batches", after-before)
	}
}

// TestEjectFlipsStickyRoutes is the sticky-cache staleness regression:
// entries pinned to a node must enter the reconciliation state the
// moment it is ejected, not linger until capacity eviction steers
// retransmits at a corpse.
func TestEjectFlipsStickyRoutes(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, func(o *Options) { o.EjectAfter = 1 })
	bodies := serveBatches(t, rt, 30)

	victim := replicas[0]
	pinned := make([]string, 0)
	for id := range bodies {
		if r, ok := rt.lookupRoute(id); ok && r.addr == victim.addr() {
			pinned = append(pinned, id)
		}
	}
	if len(pinned) == 0 {
		t.Fatal("no IDs pinned to the victim; test is vacuous")
	}

	victim.set(func(f *fakeReplica) { f.down = true })
	leaktest.Within(t, 5*time.Second, "the probe that ejects the victim", func() { rt.ProbeAll(context.Background()) })
	if st := nodeStateOf(t, rt, victim.addr()); st != "ejected" {
		t.Fatalf("victim state = %s, want ejected", st)
	}

	for _, id := range pinned {
		r, ok := rt.lookupRoute(id)
		if !ok {
			t.Fatalf("route for %s vanished on eject", id)
		}
		if !r.reconciling {
			t.Fatalf("route for %s still pinned to ejected node without reconciling flag", id)
		}
	}
	// candidatesFor must not lead with the corpse: the ring successor
	// answers first.
	for _, id := range pinned {
		cands := rt.candidatesFor(id, rt.stickyAddr(id))
		if len(cands) == 0 {
			t.Fatalf("no candidates for %s", id)
		}
		if cands[0].addr == victim.addr() {
			t.Fatalf("candidates for %s still lead with the ejected node", id)
		}
	}
	// A fresh answer by a live node resolves the window for that ID.
	id := pinned[0]
	if _, err := rt.Forward(context.Background(), id, []byte("batch-"+id), 0); err != nil {
		t.Fatal(err)
	}
	if r, _ := rt.lookupRoute(id); r.reconciling {
		t.Fatal("reconciling flag survived a successful re-answer")
	}
}

func nodeStateOf(t *testing.T, rt *Router, addr string) string {
	t.Helper()
	for _, n := range rt.Status().Nodes {
		if n.Addr == addr {
			return n.State
		}
	}
	t.Fatalf("%s not in status", addr)
	return ""
}

// TestStalledImportEndsWithTheContext: a Leave whose import targets
// stall fails when its caller's context ends, and a target's handler sees
// the push go — within seconds, so a handoff that drops the context fails
// this test, not the package's timeout.
func TestStalledImportEndsWithTheContext(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	serveBatches(t, rt, 30)
	hang := make(chan struct{})
	defer close(hang)
	for _, f := range replicas[1:] {
		f.set(func(f *fakeReplica) { f.hang = hang })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	leaktest.Within(t, 2*time.Second, "a Leave whose caller gave it 50 ms", func() {
		if err := rt.Leave(ctx, replicas[0].addr()); err == nil {
			t.Error("Leave succeeded with its import targets stalled")
		}
	})
	leaktest.Until(t, 2*time.Second, "a stalled target saw the push end", func() bool {
		return replicas[1].abandoned.Load()+replicas[2].abandoned.Load() > 0
	})
}

// TestHandoffFlows runs the one handoff procedure on each occasion for
// it — planned leave, leave with an importer refusing, crash return,
// join — and holds every outcome to the same postcondition: each served
// ID is in the ledger of the replica the ring now assigns it to, its
// sticky pin names a member that holds it, the sources owe exactly what
// was not acked, and a retransmit of everything re-classifies nothing.
func TestHandoffFlows(t *testing.T) {
	ctx := context.Background()
	join := func(t *testing.T, rt *Router) *fakeReplica {
		joiner := newFakeReplica(t)
		var err error
		leaktest.Within(t, 5*time.Second, "Join", func() { err = rt.Join(joiner.addr()) })
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Rebalance(ctx, joiner.addr()); err != nil {
			t.Fatal(err)
		}
		return joiner
	}
	flows := []struct {
		name       string
		incumbents int
		// churn changes the membership and reports the replicas it added,
		// the handoff sources, and how many entries sources[0] still owes.
		churn func(t *testing.T, rt *Router, replicas []*fakeReplica) (added, sources []*fakeReplica, owed int64)
	}{
		{"leave", 3, func(t *testing.T, rt *Router, replicas []*fakeReplica) ([]*fakeReplica, []*fakeReplica, int64) {
			if err := rt.Leave(ctx, replicas[0].addr()); err != nil {
				t.Fatal(err)
			}
			return nil, replicas[:1], 0
		}},
		{"leave, one importer refusing", 3, func(t *testing.T, rt *Router, replicas []*fakeReplica) ([]*fakeReplica, []*fakeReplica, int64) {
			// Targets are pushed in address order: with the later one
			// refusing, the earlier one's share is acked before the stall.
			leaver, acks, refuses := replicas[0], replicas[1], replicas[2]
			if acks.addr() > refuses.addr() {
				acks, refuses = refuses, acks
			}
			refuses.set(func(f *fakeReplica) { f.failImport = 1 << 20 })
			without, err := NewRing([]string{acks.addr(), refuses.addr()}, DefaultVirtualNodes)
			if err != nil {
				t.Fatal(err)
			}
			var owed int64
			leaver.set(func(f *fakeReplica) {
				for id := range f.ledger {
					if without.Owner(id) == refuses.addr() {
						owed++
					}
				}
			})
			if err := rt.Leave(ctx, leaver.addr()); err == nil {
				t.Fatal("Leave succeeded with an importer refusing")
			}
			var acked int
			acks.set(func(f *fakeReplica) { acked = f.imported })
			if acked == 0 {
				t.Fatal("nothing was acked before the stall; the case is not partial")
			}
			refuses.set(func(f *fakeReplica) { f.failImport = 0 })
			return nil, replicas[:1], owed
		}},
		{"crash return", 3, func(t *testing.T, rt *Router, replicas []*fakeReplica) ([]*fakeReplica, []*fakeReplica, int64) {
			victim := replicas[0]
			victim.set(func(f *fakeReplica) { f.down = true })
			rt.ProbeAll(ctx)
			// A join while the victim is out moves ranges whose history is
			// trapped on its disk; its return must re-home them.
			joiner := join(t, rt)
			victim.set(func(f *fakeReplica) { f.down = false })
			rt.ProbeAll(ctx)
			return []*fakeReplica{joiner}, replicas[:1], 0
		}},
		{"join", 2, func(t *testing.T, rt *Router, replicas []*fakeReplica) ([]*fakeReplica, []*fakeReplica, int64) {
			return []*fakeReplica{join(t, rt)}, replicas, 0
		}},
	}
	for _, flow := range flows {
		t.Run(flow.name, func(t *testing.T) {
			replicas := make([]*fakeReplica, flow.incumbents)
			for i := range replicas {
				replicas[i] = newFakeReplica(t)
			}
			rt := newTestRouter(t, replicas, func(o *Options) { o.EjectAfter = 1 })
			bodies := serveBatches(t, rt, 90)
			added, sources, owed := flow.churn(t, rt, replicas)
			replicas = append(replicas, added...)

			holds := func(addr, id string) (held bool) {
				for _, f := range replicas {
					if f.addr() == addr {
						f.set(func(f *fakeReplica) { _, held = f.ledger[id] })
					}
				}
				return held
			}
			pending := map[string]int64{}
			for _, n := range rt.Status().Nodes {
				pending[n.Addr] = n.HandoffPending
			}
			ring := rt.ring.Load()
			for id := range bodies {
				if owner := ring.Owner(id); !holds(owner, id) {
					t.Errorf("%s: its ring owner %s does not hold it", id, owner)
				}
				pin, ok := rt.lookupRoute(id)
				if _, member := pending[pin.addr]; !ok || pin.reconciling || !member || !holds(pin.addr, id) {
					t.Errorf("%s: sticky pin %+v (found %v, member %v) does not name a member holding it", id, pin, ok, member)
				}
			}
			for i, src := range sources {
				want := int64(0)
				if i == 0 {
					want = owed
				}
				if got := pending[src.addr()]; got != want {
					t.Errorf("source %s has handoffPending %d, want %d", src.addr(), got, want)
				}
			}
			// One probe round heals the breakers and promotions the churn
			// disturbed, then the storm.
			rt.ProbeAll(ctx)
			retransmitAll(t, rt, replicas, bodies)
		})
	}
}
