package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
	CrashRefused int
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
	// With the survivor cut off, the router fails the next batches over
	// to the victim, which answers and journals keys the survivor owns:
	// the history readmission must re-home.
	c.SendRange(partialAt, partialAt+chaosCrashWindow)
	c.Kill9(victim, partialAt+chaosCrashWindow, chaosCrashWindow)
	rep.CrashRefused = chaosCrashWindow

	// Heal the partition; probes eject the corpse, flipping its sticky
	// pins into the reconciliation window.
	c.Heal(survivor)
	c.Probe(3)
	c.ExpectState("after the kill", "ejected", victim)

	// Phase 3: the survivor carries the ring alone; the crash-window
	// batches are retransmitted through the router (the client never
	// heard verdicts for them).
	c.SendRange(partialAt+chaosCrashWindow, restartAt)

	// Restart and reconcile. The victim returns, recovering its journal —
	// completed results (the failed-over ones among them), the imports it
	// acked before the crash and the torn tails to discard; of the crash
	// window it holds nothing. The readmitting probe round must pull its
	// export and re-home the entries the current ring no longer assigns
	// to it.
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

// TestChaosChurn drives the membership-churn chaos scenario — a
// 3-replica journaled cluster under >= 10% injected link faults, a
// planned leave with ledger drain, a kill -9 mid-handoff against a
// partitioned import target, and a restart-and-reconcile — then holds
// the full retransmit storm to the exactly-once bar: zero lost
// batches, zero re-classifications, byte-identical response bodies.
func TestChaosChurn(t *testing.T) {
	rep, err := RunChaosChurn(42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reportPath := writeReportArtifact(t, "CHURN_REPORT", rep)

	// The storm's exactly-once contract.
	if rep.LostBatches != 0 {
		t.Errorf("lost batches = %d, want 0", rep.LostBatches)
	}
	if rep.StormDiverged != 0 {
		t.Errorf("storm-diverged bodies = %d, want 0 (retransmits byte-identical)", rep.StormDiverged)
	}
	if rep.StormReclassified != 0 {
		t.Errorf("storm reclassified %d events, want 0 (every retransmit answered from a ledger)", rep.StormReclassified)
	}
	if rep.StormRetransmits == 0 {
		t.Fatal("storm retransmitted nothing; the scenario is vacuous")
	}

	// The fault schedule must actually bite: >= 10% of link request keys
	// hit at least one injected fault.
	if rep.LinkKeys == 0 {
		t.Fatal("no link traffic recorded")
	}
	if frac := float64(rep.FaultedKeys) / float64(rep.LinkKeys); frac < 0.10 {
		t.Errorf("faulted link keys = %.1f%%, want >= 10%%", 100*frac)
	}

	// The planned leave must have drained real history.
	if rep.LeaveChunks == 0 || rep.LeaveEntries == 0 {
		t.Errorf("planned leave drained %d chunks / %d entries, want > 0", rep.LeaveChunks, rep.LeaveEntries)
	}

	// The partial handoff must have failed visibly, keeping the source
	// authoritative.
	if !rep.PartialLeaveFailed {
		t.Error("leave against a partitioned import target did not fail")
	}
	if rep.PartialPending == 0 {
		t.Error("partial handoff left no pending debt on the gauge")
	}
	if rep.HandoffFails == 0 {
		t.Error("partial handoff counted no push failures")
	}
	if rep.PartitionRefusals == 0 {
		t.Error("the partition refused nothing; the mid-handoff failure was not exercised")
	}

	// The kill -9 window journals nothing — its batches are classified
	// exactly once, on retransmit through the router, byte-identical (the
	// storm's audit) — and the crash leaves a torn tail to discard.
	if rep.CrashRefused == 0 || rep.RecoveredPending != 0 || rep.VictimReplayed != 0 {
		t.Errorf("victim recovered %d pending batches and replayed %d, want none: the %d refused in the kill window were never journaled, only classified on retransmit",
			rep.RecoveredPending, rep.VictimReplayed, rep.CrashRefused)
	}
	if rep.TornTailBytes == 0 {
		t.Error("no torn tail discarded; the crash did not tear the journal")
	}

	// Reconciliation must have re-homed the trapped ranges and cleared
	// the debt.
	if rep.ReconcileReplayed == 0 {
		t.Error("reconciliation replayed no entries after the victim's return")
	}
	if rep.PendingAfterReconcile != 0 {
		t.Errorf("handoffPending = %d after reconcile, want 0", rep.PendingAfterReconcile)
	}

	// The report artifact must exist and be non-empty for CI to archive.
	st, err := os.Stat(reportPath)
	if err != nil {
		t.Fatalf("churn report artifact: %v", err)
	}
	if st.Size() == 0 {
		t.Fatal("churn report artifact is empty")
	}
}

// writeReportArtifact writes doc as indented JSON to the path the
// environment variable names — the file CI archives — or, when it is
// unset, into a test temp dir, and returns the path.
func writeReportArtifact(t *testing.T, envVar string, doc any) string {
	t.Helper()
	path := os.Getenv(envVar)
	if path == "" {
		path = filepath.Join(t.TempDir(), "report.json")
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write report artifact: %v", err)
	}
	return path
}
