package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/chaoskit"
	"repro/internal/faults"
	"repro/internal/synth"
)

// ChaosServeConfig parameterizes the serving-layer chaos harness: a
// journaled longtaild-equivalent killed -9 mid-replay behind a faulty
// transport, then restarted and required to account for every batch
// exactly once.
type ChaosServeConfig struct {
	// Synth generates the dataset both daemon incarnations serve.
	Synth synth.Config
	// Faults drives the transport fault schedule and the journal's
	// torn-write behavior at the crash.
	Faults faults.Config
	// JournalDir is the write-ahead journal directory shared by both
	// daemon incarnations (the crash handoff).
	JournalDir string
	// JournalShards stripes the first daemon's journal over this many
	// WAL shards (>1 exercises the merge-by-sequence recovery with torn
	// tails on multiple shards; the restart reopens with a different
	// count to prove dedup survives a -journal-shards change).
	JournalShards int
	// Batch is events per /classify request.
	Batch int
	// CrashWindow is how many batches arrive in the kill window: accepted
	// and journaled durably, but killed before their verdicts are served.
	CrashWindow int
	// CompactBytes forces journal compaction during phase 1 so recovery
	// exercises the snapshot path too (0 = ledger default).
	CompactBytes int64
	// Tau is the rule-selection threshold.
	Tau float64
}

// DefaultChaosServeConfig returns the standard scenario: ~35% of
// classify requests hit an injected transport fault (request dropped or
// response lost after server-side processing), four batches are caught
// in the kill window, and the journal tears at the crash.
func DefaultChaosServeConfig(seed int64, dir string) ChaosServeConfig {
	return ChaosServeConfig{
		Synth: synth.DefaultConfig(seed, 0.004),
		Faults: faults.Config{
			Seed:                   seed,
			ErrorRate:              0.35,
			MaxConsecutiveFailures: 2,
			AckLossRate:            0.5, // half the faults lose the response, not the request
			TornWriteRate:          1,
		},
		JournalDir:    dir,
		JournalShards: 3,
		Batch:         32,
		CrashWindow:   4,
		CompactBytes:  1 << 14,
		Tau:           0.001,
	}
}

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
func RunChaosServe(cfg ChaosServeConfig) (*ChaosServeReport, error) {
	w, err := BootServingWorld(cfg.Synth, cfg.Tau)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-serve: %w", err)
	}
	c, err := bootChaosKit("chaos-serve", w, chaoskit.Options{
		Dir: cfg.JournalDir, Replicas: 1, Faults: &cfg.Faults,
		Shards: cfg.JournalShards, CompactBytes: cfg.CompactBytes,
		Batch: cfg.Batch, MinBatches: cfg.CrashWindow + 2, IDPrefix: "cs",
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	nBatches := c.Batches()
	rep := &ChaosServeReport{Batches: nBatches, Events: len(w.Replay), JournalShards: cfg.JournalShards}

	// Phase 1: the first incarnation serves everything but the kill
	// window through the faulty link; response-loss faults make the
	// client retransmit batches the daemon already journaled.
	rep.Phase1Batches = nBatches - cfg.CrashWindow
	c.SendRange(0, rep.Phase1Batches)
	rep.Phase1Dedup = c.Nodes[0].Engine.Metrics().DedupHits.Load()
	rep.Compactions = c.Nodes[0].Ledger.Stats().Compactions

	// The kill: the last CrashWindow batches are accepted, never answered.
	rep.TornShards = c.Kill9(0, rep.Phase1Batches, cfg.CrashWindow)
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

// ChaosServe is the registry adapter: run the default scenario in a
// temporary journal directory and render the report.
func ChaosServe(p *Pipeline, w io.Writer) error {
	dir, err := os.MkdirTemp("", "chaos-serve-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := RunChaosServe(DefaultChaosServeConfig(p.Config.Seed, dir))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Chaos-serve run: kill -9 + journal recovery under transport faults\n\n")
	fmt.Fprintf(w, "workload                  %6d batches, %d events\n", rep.Batches, rep.Events)
	fmt.Fprintf(w, "completed before kill     %6d batches\n", rep.Phase1Batches)
	fmt.Fprintf(w, "caught in kill window     %6d batches (accepted, never answered)\n", rep.CrashPending)
	fmt.Fprintf(w, "transport faults          %6d/%d classify requests (%d dropped, %d responses lost)\n",
		rep.FaultedRequests, rep.TotalRequests, rep.RequestsDropped, rep.ResponsesLost)
	fmt.Fprintf(w, "phase-1 ledger dedups     %6d\n", rep.Phase1Dedup)
	fmt.Fprintf(w, "recovery: results         %6d batches\n", rep.RecoveredResults)
	fmt.Fprintf(w, "recovery: pending         %6d batches replayed through the engine\n", rep.Replayed)
	fmt.Fprintf(w, "recovery: torn tail       %6d bytes discarded (torn tails on %d of %d journal shards)\n",
		rep.TornTailBytes, rep.TornShards, rep.JournalShards)
	fmt.Fprintf(w, "journal compactions       %6d\n", rep.Compactions)
	fmt.Fprintf(w, "\nretransmit of all %d batches after restart:\n", rep.Batches)
	fmt.Fprintf(w, "  answered from ledger    %6d\n", rep.Phase2Dedup)
	fmt.Fprintf(w, "  events reclassified     %6d (recovery replay only)\n", rep.ReclassifiedEvents)
	fmt.Fprintf(w, "  lost batches            %6d\n", rep.LostBatches)
	fmt.Fprintf(w, "  mismatched verdicts     %6d\n", rep.MismatchedVerdicts)
	if rep.LostBatches > 0 || rep.MismatchedVerdicts > 0 {
		return fmt.Errorf("experiments: chaos-serve: %d lost batches, %d mismatched verdicts", rep.LostBatches, rep.MismatchedVerdicts)
	}
	return nil
}
