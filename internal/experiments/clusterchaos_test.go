package experiments

import "testing"

// TestChaosCluster drives the full cluster-wide chaos scenario — a
// 3-replica consistent-hash cluster behind the health-aware router,
// >= 10% injected link faults, a mid-replay replica kill -9 with
// journal recovery, a router-side partition, and a generation-
// consistent reload with a replica partitioned — and holds the
// cluster to the single-node bar: zero lost batches, zero duplicated
// work on retransmit, byte-identical verdicts vs offline
// classification.
func TestChaosCluster(t *testing.T) {
	rep, err := RunChaosCluster(42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if rep.LostBatches != 0 {
		t.Errorf("lost batches = %d, want 0", rep.LostBatches)
	}
	if rep.MismatchedVerdicts != 0 {
		t.Errorf("mismatched verdicts = %d, want 0 (byte-identical to offline)", rep.MismatchedVerdicts)
	}
	if rep.StormDiverged != 0 {
		t.Errorf("storm-diverged verdicts = %d, want 0 (retransmits byte-identical)", rep.StormDiverged)
	}
	if rep.StormReclassified != 0 {
		t.Errorf("storm reclassified %d events, want 0 (every retransmit answered from a replica ledger)", rep.StormReclassified)
	}

	// The fault schedule must actually bite: >= 10% of link request keys
	// hit at least one injected fault.
	if rep.LinkKeys == 0 {
		t.Fatal("no link traffic recorded")
	}
	if frac := float64(rep.FaultedKeys) / float64(rep.LinkKeys); frac < 0.10 {
		t.Errorf("faulted link keys = %.1f%%, want >= 10%%", 100*frac)
	}
	if rep.Failovers == 0 {
		t.Error("no failovers recorded; the ring never rerouted")
	}

	// The kill -9 must have left real work to recover.
	if rep.CrashAccepted == 0 || rep.VictimReplayed < rep.CrashAccepted {
		t.Errorf("victim replayed %d pending batches, want >= %d accepted in the kill window",
			rep.VictimReplayed, rep.CrashAccepted)
	}
	if rep.TornTailBytes == 0 {
		t.Error("no torn tail discarded; the crash did not tear the journal")
	}

	// Generation consistency: degraded while partitioned, no stale-
	// generation verdicts, converged after heal.
	if !rep.DegradedDuringPartition {
		t.Error("router did not degrade during the partitioned reload")
	}
	if rep.WrongGenVerdicts != 0 {
		t.Errorf("wrong-generation verdicts = %d, want 0", rep.WrongGenVerdicts)
	}
	if rep.DegradedWindowLeaks != 0 {
		t.Errorf("stale replica classified %d events while degraded, want 0", rep.DegradedWindowLeaks)
	}
	if rep.ReloadGeneration < 2 {
		t.Errorf("reload generation = %d, want >= 2 after convergence", rep.ReloadGeneration)
	}
}
