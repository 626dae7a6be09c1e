package experiments

import (
	"testing"
)

// TestChaosServe runs the full serving-layer chaos scenario and pins
// the exactly-once acceptance criteria: a kill -9 mid-replay with
// injected transport faults, then restart + recovery, must lose
// nothing, duplicate nothing, and serve byte-identical verdicts.
func TestChaosServe(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos-serve runs the full pipeline")
	}
	rep, err := RunChaosServe(11, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostBatches != 0 {
		t.Errorf("lost %d batches across the crash", rep.LostBatches)
	}
	if rep.MismatchedVerdicts != 0 {
		t.Errorf("%d verdicts diverged from offline classification", rep.MismatchedVerdicts)
	}
	// The fault schedule must actually bite: >= 10% of classify requests
	// hit an injected transport fault.
	if rep.TotalRequests == 0 || float64(rep.FaultedRequests) < 0.1*float64(rep.TotalRequests) {
		t.Errorf("transport faults hit %d/%d requests, want >= 10%%", rep.FaultedRequests, rep.TotalRequests)
	}
	if rep.ResponsesLost == 0 {
		t.Error("no response-loss faults injected; the dedup path went unexercised")
	}
	// The kill window must leave real work for recovery, and recovery
	// must resolve exactly that work.
	if rep.RecoveredPending != chaosCrashWindow {
		t.Errorf("recovered %d pending batches, want the %d caught in the kill window", rep.RecoveredPending, chaosCrashWindow)
	}
	if rep.Replayed != rep.RecoveredPending {
		t.Errorf("replayed %d of %d pending batches", rep.Replayed, rep.RecoveredPending)
	}
	if rep.RecoveredResults == 0 {
		t.Error("no completed batches recovered from the journal")
	}
	// Exactly-once: after restart, every batch answers from the ledger
	// (retransmit retries under phase-2 faults add extra dedup hits) and
	// only the recovery replay touched the classifier.
	if rep.Phase2Dedup < uint64(rep.Batches) {
		t.Errorf("%d/%d retransmits answered from the ledger", rep.Phase2Dedup, rep.Batches)
	}
	wantReclassified := 0
	for b := rep.Phase1Batches; b < rep.Batches; b++ {
		lo, hi := b*chaosBatch, (b+1)*chaosBatch
		if hi > rep.Events {
			hi = rep.Events
		}
		wantReclassified += hi - lo
	}
	if int(rep.ReclassifiedEvents) != wantReclassified {
		t.Errorf("reclassified %d events after restart, want exactly the %d pending ones", rep.ReclassifiedEvents, wantReclassified)
	}
	// The crash must tear the journal (the torn-result batch) and the
	// phase-1 load must trigger at least one compaction, so recovery
	// exercised both the torn-tail and snapshot paths.
	if rep.TornTailBytes == 0 {
		t.Error("crash left no torn tail; the torn-write path went unexercised")
	}
	if rep.Compactions == 0 {
		t.Error("phase 1 never compacted; the snapshot recovery path went unexercised")
	}
	if rep.Phase1Dedup == 0 && rep.ResponsesLost > 0 {
		t.Error("responses were lost but the first daemon never deduplicated a retransmit")
	}
}
