package experiments

import (
	"fmt"
	"testing"

	"repro/internal/chaoskit"
)

// The chaos-serve scenario: ~35% of classify requests hit an injected
// transport fault (request dropped or response lost after server-side
// processing), and the first daemon stripes its journal over three WAL
// shards — the merge-by-sequence recovery sees torn tails on several
// shards, and the restart reopens with a different count, so dedup is
// proven to survive a -journal-shards change.
const (
	chaosServeErrorRate = 0.35
	chaosServeShards    = 3
)

// ChaosServeReport is the outcome of one serving-layer chaos run.
type ChaosServeReport struct {
	// Batches/Events is the replayed workload size.
	Batches int
	Events  int
	// Phase1Batches completed normally before the kill; CrashRefused
	// were sent in the kill window and refused, nothing journaled.
	Phase1Batches int
	CrashRefused  int
	// Transport fault accounting: requests that hit >= 1 injected fault,
	// out of all /classify requests, plus the split of fault kinds.
	FaultedRequests int
	TotalRequests   int
	RequestsDropped int64
	ResponsesLost   int64
	// Phase1Dedup counts retransmits the first daemon answered from its
	// ledger (response-loss faults resolved without reclassification).
	Phase1Dedup uint64
	// What the second daemon recovered from the journal, and how many
	// pending batches it replayed; Compactions is the first daemon's.
	chaoskit.Recovery
	Compactions uint64
	Replayed    int
	// JournalShards is the stripe width of the first daemon's journal;
	// TornShards counts the distinct shards left with torn tails at the
	// kill (>= 2 when striped — the merge must discard independent
	// tears).
	JournalShards int
	TornShards    int
	// Exactly-once accounting after restart: every batch retransmitted,
	// all but the kill window's answered from the ledger (Phase2Dedup),
	// only the kill window's events classified (ReclassifiedEvents).
	Phase2Dedup        uint64
	ReclassifiedEvents uint64
	// The divergence counters — LostBatches and MismatchedVerdicts must
	// be zero; a retransmit that diverged from its first response counts
	// as mismatched here.
	chaoskit.Audit
}

// RunChaosServe replays a month of events against a journaled serving
// daemon through a faulty transport, kills the daemon -9 with a window
// of batches refused unanswered (torn journal tails included), restarts
// it, and verifies the exactly-once contract: after recovery every
// batch is accounted for exactly once and every verdict is
// byte-identical to offline classification. The fixture, Kill9, Restart and the storm's
// checkers are chaoskit's (DESIGN.md "Chaos kit").
func RunChaosServe(seed int64, dir string) (*ChaosServeReport, error) {
	w, err := bootChaosWorld("chaos-serve", seed)
	if err != nil {
		return nil, err
	}
	c, err := bootChaosKit("chaos-serve", w, chaoskit.Options{
		Dir: dir, Replicas: 1, Faults: chaosLinkFaults(seed, chaosServeErrorRate),
		Shards: chaosServeShards, CompactBytes: chaosCompactBytes,
		Batch: chaosBatch, MinBatches: chaosCrashWindow + 2, IDPrefix: "cs",
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	nBatches := c.Batches()
	rep := &ChaosServeReport{Batches: nBatches, Events: len(w.Replay), JournalShards: chaosServeShards}

	// Phase 1: the first incarnation serves everything but the kill
	// window through the faulty link; response-loss faults make the
	// client retransmit batches the daemon already journaled.
	rep.Phase1Batches = nBatches - chaosCrashWindow
	c.SendRange(0, rep.Phase1Batches)
	rep.Phase1Dedup = c.Nodes[0].Engine.Metrics().DedupHits.Load()
	rep.Compactions = c.Nodes[0].Ledger.Stats().Compactions

	// The kill: the last CrashWindow batches are refused, never answered.
	rep.TornShards = c.Kill9(0, rep.Phase1Batches, chaosCrashWindow)
	rep.CrashRefused = chaosCrashWindow
	link := c.LinkReport()
	rep.TotalRequests, rep.FaultedRequests = link.LinkKeys, link.FaultedKeys
	rep.RequestsDropped, rep.ResponsesLost = link.RequestsDropped, link.ResponsesLost

	// Phase 2: restart and recover the journal, then let the client
	// retransmit every batch under its original ID — the kill-window ones
	// it never heard a verdict for, the rest as a client that lost its
	// state would. Exactly-once: all answered, and the restarted engine
	// classified the kill window once, on its retransmit, and nothing else.
	rep.Recovery, rep.Replayed = c.Restart(0)
	c.Storm(0, nBatches)
	second := c.Nodes[0].Engine.Metrics()
	rep.Phase2Dedup, rep.ReclassifiedEvents = second.DedupHits.Load(), second.EventsIn.Load()
	rep.Audit = c.Audit
	rep.MismatchedVerdicts += c.StormDiverged
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-serve: %w", err)
	}
	return rep, nil
}

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
	// The kill window journals nothing: its batches are classified once,
	// on their retransmit, byte-identical to offline (the audit above).
	// Recovery replay is the deferred accepts' (FuzzLedger's seeds).
	if rep.RecoveredPending != 0 || rep.Replayed != 0 {
		t.Errorf("recovered %d pending batches and replayed %d, want none: the %d refused in the kill window were never journaled",
			rep.RecoveredPending, rep.Replayed, rep.CrashRefused)
	}
	if rep.RecoveredResults == 0 {
		t.Error("no completed batches recovered from the journal")
	}
	// Exactly-once: after restart, every batch but the kill window's
	// answers from the ledger (retransmit retries under phase-2 faults add
	// extra dedup hits) and only the kill window touched the classifier.
	if rep.Phase2Dedup < uint64(rep.Batches-rep.CrashRefused) {
		t.Errorf("%d/%d retransmits answered from the ledger", rep.Phase2Dedup, rep.Batches-rep.CrashRefused)
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
		t.Errorf("classified %d events after restart, want exactly the kill window's %d, once each", rep.ReclassifiedEvents, wantReclassified)
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
