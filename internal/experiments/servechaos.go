package experiments

import (
	"fmt"

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
	// Phase1Batches completed normally before the kill; CrashPending
	// were journaled in the kill window and never answered.
	Phase1Batches int
	CrashPending  int
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
	// all answered from the ledger (Phase2Dedup), only the recovered
	// pending events reclassified (ReclassifiedEvents).
	Phase2Dedup        uint64
	ReclassifiedEvents uint64
	// The divergence counters — LostBatches and MismatchedVerdicts must
	// be zero; a retransmit that diverged from its first response counts
	// as mismatched here.
	chaoskit.Audit
}

// RunChaosServe replays a month of events against a journaled serving
// daemon through a faulty transport, kills the daemon -9 with accepted
// batches unanswered (torn journal tails included), restarts it, and
// verifies the exactly-once contract: after recovery every batch is
// accounted for exactly once and every verdict is byte-identical to
// offline classification. The fixture, Kill9, Restart and the storm's
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

	// The kill: the last CrashWindow batches are accepted, never answered.
	rep.TornShards = c.Kill9(0, rep.Phase1Batches, chaosCrashWindow)
	link := c.LinkReport()
	rep.TotalRequests, rep.FaultedRequests = link.LinkKeys, link.FaultedKeys
	rep.RequestsDropped, rep.ResponsesLost = link.RequestsDropped, link.ResponsesLost

	// Phase 2: restart, recover the journal, replay the pending batches,
	// then let the client retransmit every batch under its original ID —
	// the kill-window ones it never heard a verdict for, the rest as a
	// client that lost its state would. Exactly-once: all answered, and
	// the restarted engine classified nothing but the recovery replay.
	rep.Recovery, rep.Replayed = c.Restart(0)
	rep.CrashPending = rep.Replayed
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
