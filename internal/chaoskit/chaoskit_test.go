package chaoskit_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/chaoskit"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/synth"
)

var (
	worldOnce sync.Once
	world     *experiments.ServingWorld
	worldErr  error
)

// boot starts a fixture over a small shared world: 16-event batches of
// a scale-0.002 corpus, two journal shards per replica.
func boot(t *testing.T, replicas int, router bool, fc *faults.Config) *chaoskit.Cluster {
	t.Helper()
	worldOnce.Do(func() { world, worldErr = experiments.BootServingWorld(synth.DefaultConfig(7, 0.002), 0.001) })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	c, err := chaoskit.Boot(chaoskit.Options{
		Dir: t.TempDir(), Replicas: replicas, Router: router, Faults: fc, Shards: 2,
		Extractor: world.Extractor, Rules: world.Rules, Offline: world.Offline,
		Events: world.Replay, Batch: 16, MinBatches: 48, IDPrefix: "kit",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Err(); err != nil {
			t.Errorf("harness failure: %v", err)
		}
		c.Close()
	})
	return c
}

func wantClean(t *testing.T, c *chaoskit.Cluster) {
	t.Helper()
	if a := c.Audit; a.LostBatches+a.MismatchedVerdicts+a.WrongGenVerdicts+a.StormDiverged != 0 || a.StormReclassified != 0 {
		t.Fatalf("audit not clean: %+v", a)
	}
}

// servedBy sends batch b and reports which replica's engine classified it.
func servedBy(t *testing.T, c *chaoskit.Cluster, b int) int {
	t.Helper()
	before := make([]uint64, len(c.Nodes))
	for i, n := range c.Nodes {
		before[i] = n.Engine.Metrics().EventsIn.Load()
	}
	c.SendRange(b, b+1)
	for i, n := range c.Nodes {
		if n.Engine.Metrics().EventsIn.Load() != before[i] {
			return i
		}
	}
	t.Fatalf("batch %d was classified nowhere", b)
	return -1
}

// ringOf is the ring a router builds over the fixture's member addresses.
func ringOf(t *testing.T, c *chaoskit.Cluster) (*cluster.Ring, map[string]int) {
	t.Helper()
	names, index := make([]string, len(c.Nodes)), make(map[string]int)
	for i, n := range c.Nodes {
		names[i], index[n.Name] = n.Name, i
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ring, index
}

// TestReplicaNamesMakeTheSeedDecide boots each fixture twice — on
// different ports by construction — and requires what used to depend on
// the OS's port choice to agree: ring ownership (the router hashes
// member addresses) and the link fault schedule (keyed on the request's
// host), first as computed, then as the running router and transport
// actually behave.
func TestReplicaNamesMakeTheSeedDecide(t *testing.T) {
	fc := faults.Config{Seed: 5, ErrorRate: 0.3, MaxConsecutiveFailures: 2, AckLossRate: 0.5}
	inj, err := faults.NewInjector(fc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := boot(t, 3, true, nil), boot(t, 3, true, nil)
	ringA, index := ringOf(t, a)
	ringB, _ := ringOf(t, b)
	for k := 0; k < 200; k++ {
		id := fmt.Sprintf("id-%03d", k)
		owner := ringA.Owner(id)
		if other := ringB.Owner(id); other != owner {
			t.Fatalf("%s is owned by %s in one fixture and %s in the other", id, owner, other)
		}
		ka, kb := a.LinkKey(index[owner], id), b.LinkKey(index[owner], id)
		if inj.FailuresBefore(ka) != inj.FailuresBefore(kb) {
			t.Fatalf("%s faults %d times under link key %q and %d under %q", id, inj.FailuresBefore(ka), ka, inj.FailuresBefore(kb), kb)
		}
	}

	// The running router agrees with the ring over the names.
	for batch := 0; batch < 40; batch++ {
		owner := index[ringA.Owner(a.ID(batch))]
		if got := servedBy(t, a, batch); got != owner {
			t.Errorf("fixture A: batch %d served by replica %d, ring owner %d", batch, got, owner)
		}
		if got := servedBy(t, b, batch); got != owner {
			t.Errorf("fixture B: batch %d served by replica %d, ring owner %d", batch, got, owner)
		}
	}

	// The running transport agrees with the injector over the link keys:
	// on a single faulted link, the requests that fault are exactly the
	// ones it names, in both fixtures, and there are some.
	x, y := boot(t, 1, false, &fc), boot(t, 1, false, &fc)
	want := 0
	for batch := 0; batch < 40; batch++ {
		if inj.FailuresBefore(x.LinkKey(0, x.ID(batch))) > 0 {
			want++
		}
	}
	for _, c := range []*chaoskit.Cluster{x, y} {
		c.SendRange(0, 40)
		if keys, faulted := c.Link.Counts(); keys != 40 || faulted != want || want == 0 {
			t.Errorf("link saw %d keys, %d faulted; the injector names %d of 40", keys, faulted, want)
		}
		wantClean(t, c)
	}
}

// The four tests below show each checker red: the invariants the chaos
// gates assert had only ever been observed green.

func TestStormCountsReclassification(t *testing.T) {
	c := boot(t, 3, true, nil)
	c.SendRange(0, 24)
	// Replica 1 loses its journal between serving and the storm: its
	// retransmits can only be classified again.
	c.Stop(1)
	if err := os.RemoveAll(c.Nodes[1].Dir); err != nil {
		t.Fatal(err)
	}
	c.Restart(1)
	c.Storm(0, 24)
	if c.StormReclassified == 0 {
		t.Fatalf("a wiped ledger went unnoticed: %+v", c.Audit)
	}
	if c.StormRetransmits != 24 || c.LostBatches != 0 {
		t.Fatalf("storm accounting: %+v", c.Audit)
	}
}

func TestStormCountsDivergedBytes(t *testing.T) {
	c := boot(t, 3, true, nil)
	c.SendRange(0, 8)
	c.TamperFirstResponse(3)
	c.Storm(0, 8)
	if c.StormDiverged != 1 || c.StormReclassified != 0 {
		t.Fatalf("one tampered first response, audit %+v", c.Audit)
	}
}

func TestSendCountsLostBatches(t *testing.T) {
	c := boot(t, 3, true, nil)
	for i := range c.Nodes {
		c.Stop(i)
	}
	c.SendRange(0, 2)
	if c.LostBatches != 2 {
		t.Fatalf("two batches into a dead cluster, audit %+v", c.Audit)
	}
}

func TestSendCountsWrongGeneration(t *testing.T) {
	c := boot(t, 3, true, nil)
	if gen, err := c.Reload(world.Rules); err != nil || gen != 2 {
		t.Fatalf("reload: generation %d, %v", gen, err)
	}
	c.WantGeneration = 1
	c.SendRange(0, 1)
	if c.WrongGenVerdicts != len(c.Batch(0)) || c.MismatchedVerdicts != 0 {
		t.Fatalf("generation 2 served while 1 was expected, audit %+v", c.Audit)
	}
}

// TestLeaveThenJoinStaysExactlyOnce walks the two membership steps no
// harness scenario chains: a replica leaves (history handed off), comes
// back through Join (rebalanced), and a storm over everything served
// before, between and after finds every ledger entry where the ring now
// looks for it.
func TestLeaveThenJoinStaysExactlyOnce(t *testing.T) {
	c := boot(t, 3, true, nil)
	c.SendRange(0, 16)
	if err := c.Leave(0); err != nil {
		t.Fatal(err)
	}
	c.SendRange(16, 32)
	c.Join(0)
	c.ExpectState("after the join", "healthy", 0, 1, 2)
	c.SendRange(32, 48)
	c.Storm(0, 48)
	wantClean(t, c)
	if c.StormRetransmits != 48 {
		t.Fatalf("storm retransmitted %d of 48", c.StormRetransmits)
	}
}

// TestAcknowledgedAfterACrashSurvivesTheNextRestart: a kill -9 leaves
// torn tails on the journal shards; the restarted replica acknowledges
// more batches and is then stopped cleanly and restarted again. The
// second restart must still find everything the first one acknowledged:
// a tear left in the file sat, by then, in the middle of its shard's
// history, where replay stops — and the storm reclassified every batch
// sent in between.
func TestAcknowledgedAfterACrashSurvivesTheNextRestart(t *testing.T) {
	c := boot(t, 1, false, &faults.Config{Seed: 3, TornWriteRate: 1})
	c.SendRange(0, 8)
	if torn := c.Kill9(0, 8, 2); torn != 2 {
		t.Fatalf("kill -9 tore %d shards, want 2", torn)
	}
	if rec, _ := c.Restart(0); rec.TornTailBytes == 0 {
		t.Fatal("the restart found no torn tail; the test is vacuous")
	}
	c.SendRange(8, 24)
	c.Stop(0)
	if rec, _ := c.Restart(0); rec.TornTailBytes != 0 || rec.RecoveredResults != 24 {
		t.Fatalf("second restart recovered %d results and %d torn bytes, want 24 and 0", rec.RecoveredResults, rec.TornTailBytes)
	}
	c.Storm(0, 24)
	wantClean(t, c)
	if c.StormRetransmits != 24 {
		t.Fatalf("storm retransmitted %d of 24", c.StormRetransmits)
	}
}
