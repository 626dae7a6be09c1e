package serve_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/chaoskit"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/leaktest"
	"repro/internal/serve"
)

// FuzzCluster holds a routed chaoskit fixture — three replicas on
// CrashFS journals of two shards behind a cluster.Router, every link
// through a faults.Transport — to the reference cluster
// (refcluster_test.go) after every step of an op stream. The three
// header bytes set the link faults: the seed, the share of request keys
// that fail up to three times (0–20%) and the share of those failures
// that lose the reply after the replica answered. Then each op is two
// bytes, the op (low three bits) with its replica (the rest, mod 3), and
// an argument:
//
//	0 Send(batch arg mod 48): a first transmit or a retransmit
//	1 Kill9, the batch arg mod 48 refused by the dead engine unless the
//	  replica holds it
//	2 Restart a killed replica            3 Leave
//	4 Join a replica that left, with its rebalance
//	5 Partition                           6 Heal
//	7 Probe(1), the reconcile tick
//
// and every step is checked against four properties (DESIGN.md §12):
//
//  1. a retransmit of an answered ID gets its first reply's bytes, and
//     no replica classifies it while the replica the router asks first
//     holds it, is in reach, and neither its breaker nor its link fails;
//  2. the same for a pinned ID, whose pinned replica is asked first
//     and retried in place until its breaker opens;
//  3. every running replica's ledger equals its reference ledger: what a
//     replica journaled or acknowledged in a handoff chunk is there, a
//     restart after a kill -9 included;
//  4. every first reply is the offline classifier's (chaoskit's
//     MismatchedVerdicts), one verdict per event.
//
// The router's table must be the reference's after every step too.
// Every example test the target replaced is a seed in
// testdata/fuzz/FuzzCluster, named after it; TestClusterPropertiesFire
// turns each property red on purpose.
func FuzzCluster(f *testing.F) {
	ex, rules, replay, offline := serve.ClusterWorld(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 3+2*64 {
			t.Skip("three header bytes and at most 64 ops")
		}
		leaktest.Check(t)
		r := bootCluster(t, data, ex, rules, replay, offline)
		for k := 3; k+1 < len(data); k += 2 {
			if err := r.step(data[k], data[k+1]); err != nil {
				t.Fatalf("step %d (op %d on replica %d): %v", k, data[k]&7, int(data[k]>>3)%3, err)
			}
		}
	})
}

// clusterRun is one FuzzCluster input in flight: the fixture, the
// reference beside it, and what the IDs were answered with.
type clusterRun struct {
	c        *chaoskit.Cluster
	rc       *refCluster
	replies  map[string]string // the bytes each classified ID was journaled with
	answered map[string]bool   // IDs a client got a reply for
}

// clusterBatches is the fixture's replay in 16-event batches.
const clusterBatches = 48

// FuzzCluster's op codes.
const (
	opSend = iota
	opKill9
	opRestart
	opLeave
	opJoin
	opPartition
	opHeal
	opProbe
)

// bootCluster boots the fixture data's header asks for over the world.
func bootCluster(t *testing.T, data []byte, ex *features.Extractor, rules *classify.Classifier, replay []dataset.DownloadEvent, offline func(*classify.Classifier, *dataset.DownloadEvent) (serve.VerdictRecord, error)) *clusterRun {
	t.Helper()
	c, err := chaoskit.Boot(chaoskit.Options{
		Dir: t.TempDir(), Replicas: 3, Router: true, Shards: 2, CompactBytes: 1 << 14,
		Faults:    &faults.Config{Seed: int64(data[0]), ErrorRate: float64(data[1]%21) / 100, AckLossRate: float64(data[2]) / 255, TornWriteRate: 1},
		Extractor: ex, Rules: rules, Offline: offline,
		Events: replay[:16*clusterBatches], Batch: 16, MinBatches: clusterBatches, IDPrefix: "fc",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	names := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		names[i] = n.Name
	}
	return &clusterRun{c: c, rc: newRefCluster(t, names), replies: map[string]string{}, answered: map[string]bool{}}
}

// step runs one op on the fixture and the reference and reports the
// first property it broke.
func (r *clusterRun) step(op, arg byte) error {
	c, rc := r.c, r.rc
	i := int(op>>3) % len(rc.nodes)
	n := rc.nodes[i]
	switch op & 7 {
	case opSend:
		if err := r.send(int(arg) % clusterBatches); err != nil {
			return err
		}
	case opKill9:
		if !n.up {
			return nil
		}
		lo, window := int(arg)%clusterBatches, 1
		if _, held := n.ledger.Lookup(c.ID(lo)); held {
			window = 0 // a batch the replica holds is answered from its ledger
		}
		c.Kill9(i, lo, window)
		n.up = false
	case opRestart:
		if n.up || !n.member {
			return nil
		}
		c.Restart(i)
		n.up = true
	case opLeave:
		if !n.member {
			return nil
		}
		if err, ok := c.Leave(i), rc.leave(i); err != nil && ok {
			return fmt.Errorf("Leave(%s) failed where the reference's succeeds: %w", n.name, err)
		} else if err == nil && !ok {
			return fmt.Errorf("Leave(%s) succeeded where the reference's fails", n.name)
		}
	case opJoin:
		if !rc.joinable(i) {
			return nil
		}
		c.Join(i)
		rc.join(i)
	case opPartition:
		c.Partition(i)
		n.cut = true
	case opHeal:
		c.Heal(i)
		n.cut = false
	case opProbe:
		c.Probe(1)
		rc.probe()
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return r.check()
}

// observed is one replica's counters: its engine's, and its row's in the
// router's table.
type observed struct {
	events, served, failed uint64
	trips                  int64
	breaker                string
}

func (r *clusterRun) observe() []observed {
	out := make([]observed, len(r.c.Nodes))
	for i, n := range r.c.Nodes {
		out[i].events = n.Engine.Metrics().EventsIn.Load()
	}
	for _, row := range r.c.Router.Status().Nodes {
		i := r.rc.at[row.Addr]
		out[i].served, out[i].failed, out[i].trips, out[i].breaker = row.Served, row.Failed, row.BreakerTrips, row.Breaker
	}
	return out
}

// send forwards batch b through the router and checks properties 1, 2
// and 4 on what it did: which replica answered (its served count moved)
// and which classified (its engine's EventsIn moved).
func (r *clusterRun) send(b int) error {
	c, rc, id := r.c, r.rc, r.c.ID(b)
	first, sticky := rc.authority(id)
	before, audit := r.observe(), c.Audit
	c.Send(b)
	after := r.observe()
	by, classified := -1, []int(nil)
	for i := range after {
		if after[i].served > before[i].served {
			by = i
		}
		if after[i].events > before[i].events {
			classified = append(classified, i)
		}
	}
	if c.MismatchedVerdicts > audit.MismatchedVerdicts || by >= 0 && c.LostBatches > audit.LostBatches {
		return fmt.Errorf("property 4: the first reply to %s is not the offline classifier's (audit %+v)", id, c.Audit)
	}
	if c.StormDiverged > audit.StormDiverged {
		return fmt.Errorf("property 1: a retransmit of %s got other bytes than its first reply", id)
	}
	if r.answered[id] && first >= 0 {
		a, was, now := rc.nodes[first], before[first], after[first]
		_, held := a.ledger.Lookup(id)
		calm := was.breaker == "closed" && (sticky && now.trips == was.trips || !sticky && now.failed == was.failed)
		if held && a.reachable() && calm && (len(classified) > 0 || by != first) {
			prop := 1
			if sticky {
				prop = 2
			}
			return fmt.Errorf("property %d: %s, held by %s (pinned: %v), was classified by %v and answered by %d", prop, id, a.name, sticky, classified, by)
		}
	}
	for _, i := range classified { // each journaled its reply durably before answering
		reply, ok := c.Nodes[i].Ledger.Lookup(id)
		if prev, seen := r.replies[id]; !ok || seen && prev != string(reply) {
			return fmt.Errorf("property 3: %s classified %s and holds %q (%v); it was journaled as %q before", rc.nodes[i].name, id, reply, ok, prev)
		}
		r.replies[id] = string(reply)
		rc.nodes[i].ledger.Answer(id, r.replies[id])
	}
	if by >= 0 {
		r.answered[id], rc.pins[id] = true, refPin{node: by}
	}
	return nil
}

// check holds the router's table and every running replica's ledger to
// the reference.
func (r *clusterRun) check() error {
	m := r.c.Router.Metrics()
	if got, want := [4]uint64{m.HandoffChunks.Load(), m.HandoffEntries.Load(), m.HandoffFails.Load(), m.HandoffReplayed.Load()}, [4]uint64{r.rc.chunks, r.rc.entries, r.rc.fails, r.rc.replayed}; got != want {
		return fmt.Errorf("the router's handoff chunks, entries, failures and replayed entries are %v, the reference's %v", got, want)
	}
	rows := map[string]cluster.NodeStatus{}
	for _, row := range r.c.Router.Status().Nodes {
		rows[row.Addr] = row
	}
	for i, n := range r.rc.nodes {
		got, want := rows[n.name], cluster.NodeStatus{}
		if n.member {
			want = cluster.NodeStatus{State: n.state, HandoffPending: n.owed}
		}
		if got.State != want.State || got.HandoffPending != want.HandoffPending {
			return fmt.Errorf("the router has %s %s owing %d, the reference %q owing %d", n.name, got.State, got.HandoffPending, want.State, want.HandoffPending)
		}
		if !n.up {
			continue
		}
		if err := n.ledger.Diff(r.c.Nodes[i].Ledger); err != nil {
			return fmt.Errorf("property 3: %s: %w", n.name, err)
		}
	}
	return nil
}

// TestClusterPropertiesFire turns each FuzzCluster property red on
// purpose, as chaoskit's own tests do for its counters: a property no
// input can break checks nothing. Each case runs without link faults and
// breaks the cluster behind the reference's back.
func TestClusterPropertiesFire(t *testing.T) {
	ex, rules, replay, offline := serve.ClusterWorld(t)
	boot := func(t *testing.T, offline func(*classify.Classifier, *dataset.DownloadEvent) (serve.VerdictRecord, error)) *clusterRun {
		return bootCluster(t, []byte{0, 0, 0}, ex, rules, replay, offline)
	}
	// do runs a step that must pass; broken runs the one that must not.
	do := func(t *testing.T, r *clusterRun, op, replica, arg int) {
		t.Helper()
		if err := r.step(byte(op|replica<<3), byte(arg)); err != nil {
			t.Fatalf("before the break: %v", err)
		}
	}
	broken := func(r *clusterRun, op, replica, arg int) error { return r.step(byte(op|replica<<3), byte(arg)) }
	// wipe restarts replica i over an empty journal directory.
	wipe := func(t *testing.T, r *clusterRun, i int) {
		r.c.Stop(i)
		if err := os.RemoveAll(r.c.Nodes[i].Dir); err != nil {
			t.Fatal(err)
		}
		r.c.Restart(i)
	}
	pinned := func(r *clusterRun, id string) int { return r.rc.pins[id].node }
	for _, tc := range []struct {
		property string
		breakIt  func(t *testing.T, r *clusterRun) error
	}{
		{"property 1", func(t *testing.T, r *clusterRun) error {
			// The pinned replica answers the retransmit with other bytes.
			do(t, r, opSend, 0, 0)
			i := pinned(r, r.c.ID(0))
			wipe(t, r, i)
			forged := journal.AppendFrame(nil, 2, []byte(r.c.ID(0)+"\nforged\n")) // kind 2: a result
			if _, err := r.c.Nodes[i].Ledger.ImportChunk(forged); err != nil {
				t.Fatal(err)
			}
			return broken(r, opSend, 0, 0)
		}},
		{"property 2", func(t *testing.T, r *clusterRun) error {
			// The pinned replica lost the reply and classifies it again.
			do(t, r, opSend, 0, 0)
			wipe(t, r, pinned(r, r.c.ID(0)))
			return broken(r, opSend, 0, 0)
		}},
		{"property 3", func(t *testing.T, r *clusterRun) error {
			// An importer loses what it acknowledged.
			for b := 0; b < 12; b++ {
				do(t, r, opSend, 0, b)
			}
			if do(t, r, opLeave, 0, 0); r.rc.entries == 0 {
				t.Fatal("the leave shipped nothing")
			}
			do(t, r, opKill9, 1, 0)
			if err := os.RemoveAll(r.c.Nodes[1].Dir); err != nil {
				t.Fatal(err)
			}
			return broken(r, opRestart, 1, 0)
		}},
		{"property 4", func(t *testing.T, r *clusterRun) error {
			return broken(r, opSend, 0, 0)
		}},
	} {
		t.Run(tc.property, func(t *testing.T) {
			lying := offline
			if tc.property == "property 4" { // the reference the first reply is held to disagrees
				lying = func(clf *classify.Classifier, ev *dataset.DownloadEvent) (serve.VerdictRecord, error) {
					v, err := offline(clf, ev)
					v.Verdict += "?"
					return v, err
				}
			}
			if err := tc.breakIt(t, boot(t, lying)); err == nil || !strings.HasPrefix(err.Error(), tc.property+":") {
				t.Fatalf("broken, the step reports %v", err)
			}
		})
	}
}
