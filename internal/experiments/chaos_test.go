package experiments

import "testing"

func TestRunChaosMatchesFaultFreeBaseline(t *testing.T) {
	if chaosErrorRate < 0.10 {
		t.Fatalf("chaos scenario error rate %v below the 10%% floor", chaosErrorRate)
	}
	if chaosDuplicateRate < 0.05 {
		t.Fatalf("chaos scenario duplicate rate %v below the 5%% floor", chaosDuplicateRate)
	}
	rep, err := RunChaos(7)
	if err != nil {
		t.Fatal(err)
	}

	// The headline guarantee: injected faults must not change the dataset.
	if !rep.StoreBytesEqual {
		t.Errorf("chaos store is not byte-identical to the fault-free baseline")
	}
	if !rep.LabelDistEqual {
		t.Errorf("label distribution diverged: baseline %v, chaos %v",
			rep.BaselineLabels, rep.ChaosLabels)
	}

	// The faults must actually have happened — a vacuous pass proves
	// nothing.
	if rep.Link.Drops == 0 {
		t.Error("no link drops at 12% error rate")
	}
	if rep.Link.Duplicates == 0 {
		t.Error("no duplicated deliveries at 6% duplicate rate")
	}
	if rep.Link.AckLosses == 0 {
		t.Error("no ack losses at 5% ack-loss rate")
	}
	if rep.Link.Reordered == 0 {
		t.Error("no reordered deliveries at 8% reorder rate")
	}
	if rep.Retransmissions == 0 {
		t.Error("sender never retransmitted despite drops and ack losses")
	}
	if rep.Transport.Duplicates == 0 {
		t.Error("CS never deduplicated despite duplicates and retransmissions")
	}
	if rep.Transport.OutOfOrder == 0 {
		t.Error("CS never resequenced despite reordering")
	}
	if rep.CheckpointBytes == 0 {
		t.Error("mid-stream crash checkpoint was empty")
	}
	if rep.ScanRetries == 0 {
		t.Error("labeler never retried a scan at 12% scan error rate")
	}
	if rep.Degraded == 0 {
		t.Error("no file degraded to unknown at 25% persistent-failure rate")
	}
	if rep.Collected == 0 || rep.Collected > rep.RawEvents {
		t.Errorf("collected %d events out of %d raw", rep.Collected, rep.RawEvents)
	}
}

func TestRunChaosDeterministicAcrossRuns(t *testing.T) {
	a, err := RunChaos(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(11)
	if err != nil {
		t.Fatal(err)
	}
	if a.Link != b.Link || a.Transport != b.Transport ||
		a.Retransmissions != b.Retransmissions || a.Degraded != b.Degraded {
		t.Errorf("same seed produced different fault schedules:\n%+v\n%+v", a, b)
	}
}
