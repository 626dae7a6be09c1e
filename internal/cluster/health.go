package cluster

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"
)

// probeLoop drives ProbeAll on the configured interval until Close.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.ProbeAll(ctx)
		}
	}
}

// ProbeAll runs one health-probe round over every replica and
// re-evaluates advertisement. Safe to call manually (tests, admin
// tooling) alongside the background loop.
func (rt *Router) ProbeAll(ctx context.Context) {
	for _, n := range rt.nodeList() {
		if ctx.Err() != nil {
			return
		}
		rt.probeNode(ctx, n)
	}
	rt.mu.Lock()
	rt.maybeAdvertiseLocked()
	rt.mu.Unlock()
}

// nodeList snapshots the node set in address order.
func (rt *Router) nodeList() []*node {
	nodes := rt.table()
	out := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// probeNode runs one active health probe against n and walks its state
// machine: failures degrade then eject (at EjectAfter consecutive), a
// success re-admits an ejected node on probation (degraded), and a
// degraded node is promoted back to healthy once it reports ok at the
// fleet's target generation. Lagging replicas — partition healed,
// crash-restarted back at generation 1 — are reconciled by re-pushing
// the pending rule set, so the cluster self-heals toward generation
// consistency without operator action.
func (rt *Router) probeNode(ctx context.Context, n *node) {
	pctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	health, err := n.client.Health(pctx)
	cancel()

	if err != nil {
		n.probeErr.Add(1)
		fails := n.probeFails.Add(1)
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if !n.inRotation() {
			return // already out of the ring; nothing to demote
		}
		if int(fails) >= rt.opts.EjectAfter {
			n.state.Store(int32(NodeEjected))
			rt.rebuildRingLocked()
			// The node died holding ledger history nobody drained: open
			// the reconciliation window. Sticky entries pinned to it flip
			// immediately — retransmits consult the new ring owners instead
			// of a corpse — and the reconcile flag makes its first
			// probation readmit export the ranges it lost.
			n.needsReconcile.Store(true)
			n.handoffPending.Store(1)
			rt.invalidateRoutes(n.addr)
		} else {
			n.state.Store(int32(NodeDegraded))
		}
		return
	}

	n.probeOK.Add(1)
	n.probeFails.Store(0)
	// A successful probe is out-of-band evidence the replica answers
	// again; close its breaker now instead of waiting out the reset
	// timeout. Without this, a just-healed node is skipped at route
	// time for up to BreakerReset — and a batch whose served ID is
	// pinned to it would fail over and be re-classified elsewhere.
	n.breaker.Reset()
	gen, _ := health["generation"].(float64)
	status, _ := health["status"].(string)
	n.gen.Store(uint64(gen))

	rt.mu.Lock()
	target := rt.targetGen
	pending := rt.pendingRules
	rt.mu.Unlock()
	if target > 0 && n.gen.Load() < target && pending != nil {
		// The replica lags the fleet (healed partition, post-crash restart
		// at generation 1): push the pending rules before letting it back
		// into the healthy tier. One push closes a one-generation gap;
		// wider gaps converge over successive probe rounds.
		if g, err := n.client.Reload(ctx, pending); err == nil {
			n.gen.Store(g)
		}
	}

	rt.mu.Lock()
	atTarget := rt.targetGen == 0 || n.gen.Load() >= rt.targetGen
	readmitted := false
	switch n.State() {
	case NodeLeaving:
		rt.mu.Unlock()
		return
	case NodeEjected:
		// Probation: back into the ring, but behind the healthy tier
		// until the next probe confirms it again.
		n.state.Store(int32(NodeDegraded))
		rt.rebuildRingLocked()
		readmitted = true
	case NodeDegraded:
		if status == "ok" && atTarget {
			n.state.Store(int32(NodeHealthy))
		}
	case NodeHealthy:
		if status != "ok" || !atTarget {
			n.state.Store(int32(NodeDegraded))
		}
	}
	rt.maybeAdvertiseLocked()
	rt.mu.Unlock()

	// A crashed node returning with undrained ledger state reconciles
	// outside rt.mu (it is network I/O against several replicas): its
	// recovery replay already rebuilt the on-disk history, this pull
	// ships the ranges it no longer owns to their current owners. Kept
	// best-effort — a failed reconcile leaves needsReconcile set and the
	// next readmit or probe retries.
	if (readmitted || n.State() != NodeEjected) && n.needsReconcile.Load() {
		_ = rt.reconcileNode(ctx, n) // flag persists on failure; next round retries
	}
}

// rebuildRingLocked recomputes the ring from nodes whose state keeps
// them in rotation. Callers hold rt.mu.
func (rt *Router) rebuildRingLocked() {
	nodes := rt.table()
	addrs := make([]string, 0, len(nodes))
	for addr, n := range nodes {
		if n.inRotation() {
			addrs = append(addrs, addr)
		}
	}
	ring, err := NewRing(addrs, DefaultVirtualNodes)
	if err != nil {
		return // addresses were validated at Join; keep the old ring
	}
	rt.ring.Store(ring)
}

// maybeAdvertiseLocked moves the advertised generation forward when the
// fleet has converged: every in-ring replica healthy at the target
// generation. Callers hold rt.mu.
func (rt *Router) maybeAdvertiseLocked() {
	if rt.targetGen == 0 {
		// No reload has gone through the router yet: advertise whatever
		// uniform generation the probes discovered.
		var g uint64
		any, uniform := false, true
		for _, n := range rt.table() {
			if !n.inRotation() {
				continue
			}
			if !any {
				g, any = n.gen.Load(), true
			} else if n.gen.Load() != g {
				uniform = false
			}
		}
		if any && uniform {
			rt.advertisedGen = g
		}
		return
	}
	for _, n := range rt.table() {
		if !n.inRotation() {
			continue
		}
		if n.State() != NodeHealthy || n.gen.Load() != rt.targetGen {
			return
		}
	}
	rt.advertisedGen = rt.targetGen
	rt.degradedReason = ""
}

// Reload distributes a rule set to every in-rotation replica and only
// advertises the new generation once ALL of them confirm it. On partial
// failure the advertisement stays rolled back: the router reports
// degraded, the failed replicas are demoted out of the healthy tier,
// and the prober reconciles them toward the target generation as they
// recover. The returned generation is the target the fleet is
// converging on; err non-nil means it is not yet advertised.
func (rt *Router) Reload(ctx context.Context, rulesJSON []byte) (uint64, error) {
	rt.metrics.Reloads.Add(1)
	rt.mu.Lock()
	rt.pendingRules = append([]byte(nil), rulesJSON...)
	rt.mu.Unlock()
	var targets []*node
	for _, n := range rt.nodeList() {
		if n.inRotation() {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		rt.metrics.ReloadErr.Add(1)
		return 0, fmt.Errorf("cluster: reload: %w", ErrNoReplica)
	}

	gens := make([]uint64, len(targets))
	errs := make([]error, len(targets))
	var maxGen uint64
	var failed []string
	uniform := true
	for i, n := range targets {
		gens[i], errs[i] = n.client.Reload(ctx, rulesJSON)
		if errs[i] != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", n.addr, errs[i]))
			continue
		}
		n.gen.Store(gens[i])
		if maxGen != 0 && gens[i] != maxGen {
			uniform = false
		}
		if gens[i] > maxGen {
			maxGen = gens[i]
		}
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if maxGen > rt.targetGen {
		rt.targetGen = maxGen
	}
	if len(failed) == 0 && uniform {
		rt.advertisedGen = rt.targetGen
		rt.degradedReason = ""
		return rt.targetGen, nil
	}
	rt.metrics.ReloadErr.Add(1)
	// Roll back advertisement and demote every replica not at target, so
	// no verdict is served from a generation the fleet has not converged
	// on via the healthy tier.
	for i, n := range targets {
		if (errs[i] != nil || gens[i] != rt.targetGen) && n.State() == NodeHealthy {
			n.state.Store(int32(NodeDegraded))
		}
	}
	reason := "divergent generations"
	if len(failed) > 0 {
		reason = "partial reload: " + strings.Join(failed, "; ")
	}
	rt.degradedReason = reason
	return rt.targetGen, fmt.Errorf("cluster: %s", reason)
}

// Join adds a replica to the cluster. It enters on probation
// (degraded): the next probe round confirms health, reconciles its rule
// generation, and promotes it into the healthy tier — at which point
// the ring hands it its share of the key space.
func (rt *Router) Join(addr string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.table()[addr] != nil {
		return fmt.Errorf("cluster: %s is already a member", addr)
	}
	n, err := rt.newNode(addr)
	if err != nil {
		return err
	}
	n.state.Store(int32(NodeDegraded))
	next := maps.Clone(rt.table())
	next[addr] = n
	rt.nodes.Store(&next)
	rt.rebuildRingLocked()
	return nil
}

// Leave removes a replica gracefully: it is taken out of the ring
// immediately (new traffic reroutes to ring successors), its ledger is
// handed off to the new ring owners of its keys, in-flight forwards
// drain, and only then is the node forgotten. ctx bounds both the
// handoff and the drain.
//
// The handoff must complete before the node is forgotten or its dedup
// history dies with it — a client retransmit of an ID it served would
// be silently re-classified elsewhere. If the handoff fails partway
// (targets down, ctx expired), authority must not split: the node
// returns to rotation as degraded, still answering for everything not
// yet acked by an importer, with the remainder visible as its
// longtail_handoff_pending gauge. The operator retries Leave once the
// targets recover.
func (rt *Router) Leave(ctx context.Context, addr string) error {
	rt.mu.Lock()
	n := rt.table()[addr]
	if n == nil {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: %s is not a member", addr)
	}
	n.state.Store(int32(NodeLeaving))
	rt.rebuildRingLocked()
	rt.mu.Unlock()

	if _, err := rt.handoff(ctx, n, ""); err != nil {
		rt.mu.Lock()
		n.state.Store(int32(NodeDegraded))
		rt.rebuildRingLocked()
		rt.mu.Unlock()
		return fmt.Errorf("cluster: leave %s: %w", addr, err)
	}
	// Every exported ID was re-pinned to its importer as chunks acked;
	// flip whatever still points at the leaver (IDs its ledger had
	// already evicted) so no retransmit chases a forgotten node.
	rt.invalidateRoutes(addr)

	stop := context.AfterFunc(ctx, rt.drainCond.Broadcast)
	defer stop()
	rt.drainMu.Lock()
	for n.inflight.Load() > 0 && ctx.Err() == nil {
		rt.drainCond.Wait()
	}
	rt.drainMu.Unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: draining %s: %w", addr, err)
	}

	rt.mu.Lock()
	next := maps.Clone(rt.table())
	delete(next, addr)
	rt.nodes.Store(&next)
	rt.mu.Unlock()
	return nil
}

// NodeStatus is one replica's row in the router's health report.
type NodeStatus struct {
	Addr          string `json:"addr"`
	State         string `json:"state"`
	Breaker       string `json:"breaker"`
	Generation    uint64 `json:"generation"`
	ProbeFailures int32  `json:"probeFailures"`
	Inflight      int64  `json:"inflight"`
	Served        uint64 `json:"served"`
	Failed        uint64 `json:"failed"`
	ProbeOK       uint64 `json:"probeOk"`
	ProbeErr      uint64 `json:"probeErr"`
	BreakerTrips  int64  `json:"breakerTrips"`
	// HandoffPending counts ledger entries (or, after a crash, the
	// sentinel 1 for "unknown amount") this node still owes a handoff.
	HandoffPending int64 `json:"handoffPending"`
}

// Status is the router's /healthz payload.
type Status struct {
	Status           string       `json:"status"` // "ok" or "degraded"
	Generation       uint64       `json:"generation"`
	TargetGeneration uint64       `json:"targetGeneration"`
	DegradedReason   string       `json:"degradedReason,omitempty"`
	Nodes            []NodeStatus `json:"nodes"`
}

// Status snapshots cluster health: the advertised generation, the
// convergence target, and every replica's state. The router is
// "degraded" while advertisement lags the target or no healthy replica
// remains.
func (rt *Router) Status() Status {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := Status{
		Status:           "ok",
		Generation:       rt.advertisedGen,
		TargetGeneration: rt.targetGen,
		DegradedReason:   rt.degradedReason,
		Nodes:            make([]NodeStatus, 0, len(rt.table())),
	}
	healthy := 0
	for _, n := range rt.table() {
		st := n.State()
		if st == NodeHealthy {
			healthy++
		}
		out.Nodes = append(out.Nodes, NodeStatus{
			Addr:           n.addr,
			State:          st.String(),
			Breaker:        n.breaker.State().String(),
			Generation:     n.gen.Load(),
			ProbeFailures:  n.probeFails.Load(),
			Inflight:       n.inflight.Load(),
			Served:         n.served.Load(),
			Failed:         n.failed.Load(),
			ProbeOK:        n.probeOK.Load(),
			ProbeErr:       n.probeErr.Load(),
			BreakerTrips:   n.breaker.Trips(),
			HandoffPending: n.handoffPending.Load(),
		})
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Addr < out.Nodes[j].Addr })
	if rt.degradedReason != "" || healthy == 0 || (rt.targetGen > 0 && rt.advertisedGen != rt.targetGen) {
		out.Status = "degraded"
		if out.DegradedReason == "" {
			out.DegradedReason = "no healthy replica"
		}
	}
	return out
}
