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

// TestLeaveHandsOffLedger: a planned leave drains the leaver's dedup
// history to the new ring owners before the node is forgotten, so a
// full retransmit storm afterwards re-classifies nothing.
func TestLeaveHandsOffLedger(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	bodies := serveBatches(t, rt, 30)

	leaver := replicas[0]
	if err := rt.Leave(context.Background(), leaver.addr()); err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().HandoffChunks.Load(); got == 0 {
		t.Error("leave moved no handoff chunks")
	}
	if got := rt.Metrics().HandoffEntries.Load(); got == 0 {
		t.Error("leave moved no handoff entries")
	}
	// Everything the leaver served must now answer from a survivor's
	// ledger, byte-identical, without a single re-classification.
	retransmitAll(t, rt, replicas, bodies)
	// The leaver is gone and owes nothing.
	for _, n := range rt.Status().Nodes {
		if n.Addr == leaver.addr() {
			t.Fatal("leaver still in membership after Leave")
		}
		if n.HandoffPending != 0 {
			t.Fatalf("%s has handoffPending %d after clean leave", n.Addr, n.HandoffPending)
		}
	}
}

// TestLeavePartialHandoffKeepsSource: when the transfer cannot
// complete, authority must not split — the leaver returns to rotation
// still answering for its history, with the stall visible on the
// pending gauge.
func TestLeavePartialHandoffKeepsSource(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	bodies := serveBatches(t, rt, 30)

	leaver := replicas[0]
	// Every import target refuses to journal: the push exhausts its
	// retries on the first chunk.
	for _, f := range replicas[1:] {
		f.set(func(f *fakeReplica) { f.failImport = 1 << 20 })
	}
	if err := rt.Leave(context.Background(), leaver.addr()); err == nil {
		t.Fatal("Leave succeeded with every import target failing")
	}
	if got := rt.Metrics().HandoffFails.Load(); got == 0 {
		t.Error("failed handoff did not count on HandoffFails")
	}

	// The leaver must be back in rotation (degraded, in the ring) and
	// its unacked entries visible on the gauge.
	st := rt.Status()
	found := false
	for _, n := range st.Nodes {
		if n.Addr != leaver.addr() {
			continue
		}
		found = true
		if n.State != "degraded" {
			t.Fatalf("leaver state after failed handoff = %s, want degraded", n.State)
		}
		if n.HandoffPending == 0 {
			t.Error("failed handoff left handoffPending at 0")
		}
	}
	if !found {
		t.Fatal("leaver forgotten despite failed handoff")
	}
	inRing := false
	for _, addr := range rt.ring.Load().Successors("req-000") {
		if addr == leaver.addr() {
			inRing = true
		}
	}
	if !inRing {
		t.Fatal("leaver not restored to the ring after failed handoff")
	}

	// Let imports succeed again and heal the targets' breakers (opened
	// by the forced failures) so the storm routes normally.
	for _, f := range replicas[1:] {
		f.set(func(f *fakeReplica) { f.failImport = 0 })
	}
	rt.ProbeAll(context.Background())
	// The source is still authoritative: every ID answers byte-identical.
	retransmitAll(t, rt, replicas, bodies)

	// A retried Leave now completes and clears the debt.
	if err := rt.Leave(context.Background(), leaver.addr()); err != nil {
		t.Fatalf("retried Leave: %v", err)
	}
	retransmitAll(t, rt, replicas, bodies)

	// A stalled import target and a caller with 50 ms to spare: the Leave
	// fails when they are up, and the target's handler sees the push go.
	hang := make(chan struct{})
	defer close(hang)
	replicas[2].set(func(f *fakeReplica) { f.hang = hang })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	leaktest.Within(t, 2*time.Second, "a Leave whose caller gave it 50 ms", func() {
		if err := rt.Leave(ctx, replicas[1].addr()); err == nil {
			t.Error("Leave succeeded with its import target stalled")
		}
	})
	leaktest.Until(t, 2*time.Second, "the stalled target saw the push end", func() bool { return replicas[2].abandoned.Load() > 0 })
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
	rt.ProbeAll(context.Background())
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

// TestCrashReturnReconciles: a node dies with undrained history, is
// ejected, and later returns on probation. Its readmit must trigger the
// background reconciler — the returned node's journal contents are
// pulled and re-homed to the current ring owners — after which a full
// retransmit storm re-classifies nothing.
func TestCrashReturnReconciles(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, func(o *Options) { o.EjectAfter = 1 })
	bodies := serveBatches(t, rt, 30)

	victim := replicas[0]
	victim.set(func(f *fakeReplica) { f.down = true })
	rt.ProbeAll(context.Background())
	if st := nodeStateOf(t, rt, victim.addr()); st != "ejected" {
		t.Fatalf("victim state = %s, want ejected", st)
	}
	if pending := nodePending(t, rt, victim.addr()); pending == 0 {
		t.Error("eject left handoffPending at 0; the debt is invisible")
	}

	// Membership changes while the victim is dead: a new replica joins
	// and takes over part of the key space — including ranges whose
	// history is trapped on the victim's disk. (Rebalance can only pull
	// from live members, so those stay missing until reconciliation.)
	joiner := newFakeReplica(t)
	if err := rt.Join(joiner.addr()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Rebalance(context.Background(), joiner.addr()); err != nil {
		t.Fatal(err)
	}
	replicas = append(replicas, joiner)

	// The victim returns (its ledger intact — the fake's map stands in
	// for recovery replay from the journal). The readmitting probe round
	// must reconcile: pull its export and re-home the entries the
	// four-node ring no longer assigns to it.
	victim.set(func(f *fakeReplica) { f.down = false })
	rt.ProbeAll(context.Background())
	if st := nodeStateOf(t, rt, victim.addr()); st == "ejected" {
		t.Fatal("victim not readmitted")
	}
	// What it must have re-homed is every entry on the victim's disk that
	// the four-node ring assigns elsewhere — how many depends on the ports
	// the OS handed the fakes, and may be none.
	ring := rt.ring.Load()
	var lost uint64
	victim.set(func(f *fakeReplica) {
		for id := range f.ledger {
			if ring.Owner(id) != victim.addr() {
				lost++
			}
		}
	})
	if got := rt.Metrics().HandoffReplayed.Load(); got != lost {
		t.Errorf("reconciliation replayed %d entries; the victim holds %d that the ring assigns elsewhere", got, lost)
	}
	if pending := nodePending(t, rt, victim.addr()); pending != 0 {
		t.Fatalf("handoffPending still %d after reconcile", pending)
	}
	// One more probe round heals breakers/promotions, then the storm.
	rt.ProbeAll(context.Background())
	retransmitAll(t, rt, replicas, bodies)
}

func nodePending(t *testing.T, rt *Router, addr string) int64 {
	t.Helper()
	for _, n := range rt.Status().Nodes {
		if n.Addr == addr {
			return n.HandoffPending
		}
	}
	t.Fatalf("%s not in status", addr)
	return 0
}

// TestJoinRebalances: a joiner takes over key ranges the moment the
// ring grows, so Rebalance must hand it the history for those ranges —
// otherwise a retransmit of a remapped ID reaches a joiner that never
// saw it.
func TestJoinRebalances(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	bodies := serveBatches(t, rt, 30)

	joiner := newFakeReplica(t)
	if err := rt.Join(joiner.addr()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Rebalance(context.Background(), joiner.addr()); err != nil {
		t.Fatal(err)
	}
	replicas = append(replicas, joiner)

	// The joiner owns some of the served keys now; it must hold their
	// verdicts without ever having classified them.
	ring := rt.ring.Load()
	owned := 0
	for id := range bodies {
		if ring.Owner(id) == joiner.addr() {
			owned++
		}
	}
	if owned == 0 {
		t.Skip("ring remapped nothing to the joiner; nothing to assert")
	}
	if joiner.classifiedCount() != 0 {
		t.Fatal("joiner classified during rebalance")
	}
	retransmitAll(t, rt, replicas, bodies)
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
		if err := rt.Join(joiner.addr()); err != nil {
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
