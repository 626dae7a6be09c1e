package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

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

	// The kill -9 must have left real work to recover, and the crash a
	// torn tail to discard.
	if rep.CrashAccepted == 0 || rep.VictimReplayed < rep.CrashAccepted {
		t.Errorf("victim replayed %d pending batches, want >= %d accepted in the kill window",
			rep.VictimReplayed, rep.CrashAccepted)
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
