package experiments

import (
	"fmt"

	"repro/internal/chaoskit"
)

// chaosChurnErrorRate: >= 10% of router->replica classify deliveries
// hit an injected link fault.
const chaosChurnErrorRate = 0.15

// ChaosChurnReport is the outcome of one churn chaos run.
type ChaosChurnReport struct {
	Replicas int
	Batches  int
	Events   int

	// Link-fault accounting across all router->replica links, and the
	// router's failovers.
	chaoskit.LinkReport

	// The planned leave: history drained to the new ring owners before
	// the node is forgotten.
	LeaveChunks  uint64
	LeaveEntries uint64

	// The partial handoff: with the import target partitioned, Leave
	// must fail, keep the source authoritative, and surface the debt.
	PartialLeaveFailed bool
	PartialPending     int64
	HandoffFails       uint64

	// The kill -9 and journal recovery of the mid-handoff victim.
	CrashAccepted int
	chaoskit.Recovery
	VictimReplayed int

	// Reconciliation when the crashed node returns on probation.
	ReconcileReplayed     uint64
	PendingAfterReconcile int64

	// The divergence counters, all of which must be zero, and
	// StormRetransmits: the closing storm re-sends every ID ever served,
	// and every retransmit must be answered from a replica ledger with
	// the first response's bytes.
	chaoskit.Audit
}

// RunChaosChurn replays a synth trace through a 3-replica journaled
// cluster under link faults while the membership churns underneath it:
// replica 0 leaves cleanly (its dedup history drains to the new ring
// owners before it is forgotten), replica 1 dies mid-handoff (its
// planned leave fails against a partitioned import target, then kill
// -9 with torn journal tails), and later restarts into probation,
// where readmission reconciles its trapped history to the current
// owners. A final retransmit storm re-sends every ID ever served and
// holds the cluster to the exactly-once bar: zero lost, zero
// re-classified, byte-identical response bodies. The fixture, the fault
// steps and the checkers are chaoskit's (DESIGN.md "Chaos kit").
func RunChaosChurn(seed int64, dir string) (*ChaosChurnReport, error) {
	w, err := bootChaosWorld("chaos-churn", seed)
	if err != nil {
		return nil, err
	}
	// Replica 0 leaves cleanly mid-run, replica 1 is the mid-handoff
	// kill -9 victim, replica 2 survives and absorbs the handoffs.
	const leaver, victim, survivor = 0, 1, 2
	c, err := bootChaosKit("chaos-churn", w, chaoskit.Options{
		Dir: dir, Replicas: chaosReplicas, Router: true, Faults: chaosLinkFaults(seed, chaosChurnErrorRate),
		Shards: chaosNodeShards, CompactBytes: chaosCompactBytes,
		Batch: chaosBatch, MinBatches: 12, IDPrefix: "churn",
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	nBatches := c.Batches()
	rep := &ChaosChurnReport{Replicas: chaosReplicas, Batches: nBatches, Events: len(w.Replay)}
	rm := c.Router.Metrics()

	// Scenario timeline over the batch sequence.
	leaveAt := nBatches / 3
	partialAt := nBatches / 2
	restartAt := 3 * nBatches / 4

	// Phase 1: three healthy replicas under link faults.
	c.SendRange(0, leaveAt)

	// The planned leave. Replica 0 drains its dedup history to the
	// two-node ring's owners before the router forgets it; everything it
	// served must keep answering from the survivors' ledgers.
	if err := c.Leave(leaver); err != nil {
		c.Failf("planned leave: %w", err)
	}
	rep.LeaveChunks, rep.LeaveEntries = rm.HandoffChunks.Load(), rm.HandoffEntries.Load()
	if c.Member(leaver).Addr != "" {
		c.Failf("leaver still in membership after Leave")
	}
	for _, i := range []int{victim, survivor} {
		if debt := c.Member(i).HandoffPending; debt != 0 {
			c.Failf("%s owes %d entries after clean leave", c.Nodes[i].Name, debt)
		}
	}

	// Phase 2: the two-node ring carries the load.
	c.SendRange(leaveAt, partialAt)

	// Kill -9 mid-handoff. The victim's planned leave runs against a
	// partitioned import target: the transfer cannot complete, so Leave
	// must fail without splitting authority — the victim returns to
	// rotation (degraded) still answering for its history, the debt
	// visible on the pending gauge. Then the kill.
	c.Partition(survivor)
	rep.PartialLeaveFailed = c.Leave(victim) != nil
	if !rep.PartialLeaveFailed {
		c.Failf("leave succeeded with the import target partitioned")
	}
	rep.HandoffFails = rm.HandoffFails.Load()
	c.ExpectState("after the failed leave", "degraded", victim)
	if rep.PartialPending = c.Member(victim).HandoffPending; rep.PartialPending == 0 {
		c.Failf("partial handoff left no visible pending debt")
	}
	c.Kill9(victim, partialAt, chaosCrashWindow)
	rep.CrashAccepted = chaosCrashWindow

	// Heal the partition; probes eject the corpse, flipping its sticky
	// pins into the reconciliation window.
	c.Heal(survivor)
	c.Probe(3)
	c.ExpectState("after the kill", "ejected", victim)

	// Phase 3: the survivor carries the ring alone; the crash-window
	// batches are retransmitted through the router (the client never
	// heard verdicts for them).
	c.SendRange(partialAt, restartAt)

	// Restart and reconcile. The victim returns, recovering its journal —
	// completed results, the imports it acked before the crash, the
	// accepted-but-unanswered crash window, and the torn tails to
	// discard. The readmitting probe round must pull its export and
	// re-home the entries the current ring no longer assigns to it.
	rep.Recovery, rep.VictimReplayed = c.Restart(victim)
	replayedBefore := rm.HandoffReplayed.Load()
	c.Probe(1)
	if c.Member(victim).State == "ejected" {
		c.Failf("victim not readmitted after restart")
	}
	rep.ReconcileReplayed = rm.HandoffReplayed.Load() - replayedBefore
	if rep.PendingAfterReconcile = c.Member(victim).HandoffPending; rep.PendingAfterReconcile != 0 {
		c.Failf("victim still owes %d entries after reconcile", rep.PendingAfterReconcile)
	}
	c.Probe(2)
	c.ExpectState("after reconcile", "healthy", victim, survivor)

	// Phase 4: steady state on the reconciled two-node ring, then the
	// retransmit storm over every ID ever served.
	c.SendRange(restartAt, nBatches)
	c.Storm(0, nBatches)

	rep.LinkReport, rep.Audit = c.LinkReport(), c.Audit
	if rep.MismatchedVerdicts > 0 {
		c.Failf("%d first responses differ from offline classification", rep.MismatchedVerdicts)
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-churn: %w", err)
	}
	return rep, nil
}
