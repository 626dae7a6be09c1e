package serve_test

import (
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// The reference cluster: the router of DESIGN.md §12 and §14 as a
// sequential state machine over one reference ledger per replica
// (refledger_test.go), which FuzzCluster holds a routed chaoskit fixture
// to after every step. It does not say which replica answers a forward —
// link faults and wall-clock breakers decide that — but what each ledger
// holds, the router's table, where a retransmit goes and a handoff moves.

// ejectAfter is chaoskit's EjectAfter: consecutive failed probes that
// take a replica out of the ring.
const ejectAfter = 3

// refNode is one replica: its process and link, and its row in the
// router's table.
type refNode struct {
	name      string
	ledger    *serve.RefLedger
	up, cut   bool   // the process runs; the link into it is partitioned
	member    bool   // the router knows it
	state     string // NodeStatus.State while a member
	fails     int    // consecutive failed probes
	reconcile bool   // ejected with history nobody drained
	owed      int64  // HandoffPending: entries shipped but not acked, 1 for unknown
}

func (n *refNode) reachable() bool  { return n.up && !n.cut }
func (n *refNode) inRotation() bool { return n.member && n.state != "ejected" && n.state != "leaving" }

// refPin is a sticky route: the replica that answered the ID, or, once
// that replica was ejected or left, a reconciling entry that confers no
// authority.
type refPin struct {
	node        int
	reconciling bool
}

// refCluster is the router's view and the replicas' ledgers. chunks,
// entries, fails and replayed are the router's Handoff* counters: acked
// chunks and their entries, failed handoffs, entries reconciles shipped.
type refCluster struct {
	t     testing.TB
	nodes []*refNode
	at    map[string]int // replica name -> index
	pins  map[string]refPin

	chunks, entries, fails, replayed uint64
}

// newRefCluster is a booted fixture: every replica up and healthy.
func newRefCluster(t testing.TB, names []string) *refCluster {
	rc := &refCluster{t: t, at: map[string]int{}, pins: map[string]refPin{}}
	for i, name := range names {
		rc.nodes = append(rc.nodes, &refNode{name: name, ledger: serve.NewRefLedger(), up: true, member: true, state: "healthy"})
		rc.at[name] = i
	}
	return rc
}

// ring is the production ring over the members in rotation.
func (rc *refCluster) ring() *cluster.Ring {
	var names []string
	for _, n := range rc.nodes {
		if n.inRotation() {
			names = append(names, n.name)
		}
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		rc.t.Fatal(err)
	}
	return ring
}

// authority is the replica a forward of id asks first, and whether that
// is because id is pinned to it: a pin that is not reconciling, whatever
// the tier of its replica, then the healthy ring successors, then the
// degraded ones. It is -1 when no replica is in rotation.
func (rc *refCluster) authority(id string) (int, bool) {
	if p, ok := rc.pins[id]; ok && !p.reconciling && rc.nodes[p.node].inRotation() {
		return p.node, true
	}
	succ := rc.ring().Successors(id)
	for _, tier := range []string{"healthy", "degraded"} {
		for _, name := range succ {
			if rc.nodes[rc.at[name]].state == tier {
				return rc.at[name], false
			}
		}
	}
	return -1, false
}

// repin points an existing pin at the replica that now holds id.
func (rc *refCluster) repin(id string, node int) {
	if _, ok := rc.pins[id]; ok {
		rc.pins[id] = refPin{node: node}
	}
}

// invalidate opens the reconciliation window of every pin to node.
func (rc *refCluster) invalidate(node int) {
	for id, p := range rc.pins {
		if p.node == node {
			rc.pins[id] = refPin{node: node, reconciling: true}
		}
	}
}

// probe is one ProbeAll round, in address order: a replica out of reach
// is degraded, and ejected at the ejectAfter-th failure in a row, which
// opens its reconciliation window; one in reach is readmitted on
// probation from ejected, promoted from degraded, and, if it was ejected
// with history, reconciled.
func (rc *refCluster) probe() {
	for i, n := range rc.nodes {
		switch {
		case !n.member:
			continue
		case !n.reachable():
			if n.fails++; n.inRotation() && n.fails >= ejectAfter {
				n.state, n.reconcile, n.owed = "ejected", true, 1
				rc.invalidate(i)
			} else if n.inRotation() {
				n.state = "degraded"
			}
			continue
		case n.state == "ejected":
			n.state = "degraded"
		case n.state == "degraded":
			n.state = "healthy"
		}
		n.fails = 0
		if !n.reconcile {
			continue
		}
		if shipped, ok := rc.handoff(i, ""); ok {
			n.reconcile, n.owed = false, 0
			rc.replayed += uint64(shipped)
		}
	}
}

// handoff is Router.handoff from src: its export split by ring owner
// (with only set, just what that replica now owns), what the ring maps
// back to src re-pinned to it, the rest imported owner by owner in
// address order and re-pinned chunk by chunk, each acked off what src
// owes. It stops at a replica out of reach, the source's export or a
// push, and what was imported stays. It reports what it shipped.
func (rc *refCluster) handoff(src int, only string) (shipped int, ok bool) {
	if !rc.nodes[src].reachable() {
		rc.fails++
		return 0, false
	}
	ring := rc.ring()
	groups, err := serve.SplitExport(rc.nodes[src].ledger.Export(), func(id string) string {
		switch owner := ring.Owner(id); {
		case only != "" && owner != only:
			return ""
		case owner == "" || owner == rc.nodes[src].name:
			rc.repin(id, src)
			return ""
		default:
			return owner
		}
	})
	if err != nil {
		rc.t.Fatal(err)
	}
	var owners []string
	for owner, chunks := range groups {
		owners = append(owners, owner)
		for _, chunk := range chunks {
			shipped += chunk.Entries
		}
	}
	if shipped > 0 {
		rc.nodes[src].owed = int64(shipped)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		dst := rc.at[owner]
		for _, chunk := range groups[owner] {
			if !rc.nodes[dst].reachable() {
				rc.fails++
				return shipped, false
			}
			rc.nodes[dst].ledger.Import(rc.t, chunk.Data)
			rc.nodes[src].owed -= int64(chunk.Entries)
			rc.chunks, rc.entries = rc.chunks+1, rc.entries+uint64(chunk.Entries)
			for _, id := range chunk.IDs {
				rc.repin(id, dst)
			}
		}
	}
	return shipped, true
}

// leave is a planned Leave: out of the ring, its ledger handed off, and,
// once every chunk landed, its pins invalidated and the process gone.
// A handoff that stops short puts it back in rotation, degraded.
func (rc *refCluster) leave(i int) bool {
	n := rc.nodes[i]
	n.state = "leaving"
	if _, ok := rc.handoff(i, ""); !ok {
		n.state = "degraded"
		return false
	}
	rc.invalidate(i)
	n.member, n.up = false, false
	return true
}

// joinable reports whether chaoskit's Join of replica i runs through:
// the router does not know it, its link is whole, and every other
// member it will rebalance from is in reach or ejected by the two probe
// rounds first.
func (rc *refCluster) joinable(i int) bool {
	if n := rc.nodes[i]; n.member || n.cut {
		return false
	}
	for _, n := range rc.nodes {
		if n.member && !n.reachable() && n.state != "ejected" && n.fails+2 < ejectAfter {
			return false
		}
	}
	return true
}

// join is chaoskit's Join: the process up, probation, two probe rounds,
// and the rebalance onto it from every other member in rotation.
func (rc *refCluster) join(i int) {
	n := rc.nodes[i]
	*n = refNode{name: n.name, ledger: n.ledger, up: true, cut: n.cut, member: true, state: "degraded"}
	rc.probe()
	rc.probe()
	for j, src := range rc.nodes {
		if j != i && src.inRotation() {
			rc.handoff(j, n.name) // joinable: it lands, as the fixture's does
		}
	}
}
