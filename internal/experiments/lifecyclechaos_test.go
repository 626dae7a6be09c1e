package experiments

import (
	"os"
	"testing"
)

// TestChaosLifecycle drives the champion/challenger lifecycle against a
// live 3-replica cluster: harvested t₀+2y ground truth, an over-broad
// challenger the FP gate must reject without ever serving, a garbage
// reload degrading one replica, and a retrained challenger whose
// promotion must converge the whole fleet to generation 2 through the
// router's generation-consistent fan-out — with zero lost batches,
// zero wrong-generation verdicts, and zero dropped shadow batches.
func TestChaosLifecycle(t *testing.T) {
	rep, err := RunChaosLifecycle(42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reportPath := writeReportArtifact(t, "LIFECYCLE_REPORT", rep.Shadow)

	// The bad challenger must be rejected over the paper's FP budget —
	// and must never have reached serving.
	if !rep.BadRejected {
		t.Error("bad challenger was not rejected")
	}
	if rep.BadFPRate <= chaosFPBudget {
		t.Errorf("bad challenger FP rate %.4f not over budget %.4f; the scenario is vacuous", rep.BadFPRate, chaosFPBudget)
	}
	if rep.BadDisagreements == 0 {
		t.Error("no disagreement examples retained for the report")
	}

	// The good challenger must promote and converge the cluster.
	if !rep.GoodPromoted {
		t.Error("good challenger was not promoted")
	}
	if rep.GoodFPRate > chaosFPBudget {
		t.Errorf("good challenger FP rate %.4f over budget %.4f yet promoted", rep.GoodFPRate, chaosFPBudget)
	}
	if rep.PromotedGeneration != 2 {
		t.Errorf("promoted generation = %d, want 2", rep.PromotedGeneration)
	}
	if !rep.RouterConverged {
		t.Error("router advertised/target generations did not converge after promotion")
	}

	// Degraded recovery: raised by the garbage reload, cleared by the
	// promotion riding the same reload path.
	if !rep.DegradedAfterBadReload {
		t.Error("longtail_degraded not raised by the garbage reload")
	}
	if !rep.DegradedCleared {
		t.Error("longtail_degraded not cleared by the promotion")
	}

	// Serving invariants: nothing lost, nothing served from the wrong
	// generation, nothing dropped off the shadow path.
	if rep.LostBatches != 0 {
		t.Errorf("lost batches = %d, want 0", rep.LostBatches)
	}
	if rep.MismatchedVerdicts != 0 {
		t.Errorf("mismatched verdicts = %d, want 0 (byte-identical to offline)", rep.MismatchedVerdicts)
	}
	if rep.WrongGenVerdicts != 0 {
		t.Errorf("wrong-generation verdicts = %d, want 0", rep.WrongGenVerdicts)
	}
	if rep.ShadowDropped != 0 {
		t.Errorf("shadow batches dropped = %d, want 0", rep.ShadowDropped)
	}

	// The shadow surface: per-rule counters for both generations during
	// shadowing, champion decay series after promotion.
	if !rep.RuleMetricsSeen {
		t.Error("/metrics missing per-rule hit/FP counters for champion and challenger during shadowing")
	}
	if !rep.DecayMetricsSeen {
		t.Error("/metrics missing champion per-rule counters under the promoted generation")
	}

	// The harvest actually fed the retrain.
	if rep.Harvested == 0 {
		t.Error("no ground truth harvested")
	}
	if rep.ServedFiles == 0 {
		t.Error("ledger drain recorded no served files")
	}

	// The disagreement report artifact exists and is non-empty.
	if fi, err := os.Stat(reportPath); err != nil || fi.Size() == 0 {
		t.Errorf("shadow report artifact missing or empty at %s (err %v)", reportPath, err)
	}
}
