package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ChaosChurnConfig parameterizes the membership-churn chaos harness: a
// 3-replica journaled cluster under injected link faults driven through
// the full ledger-handoff lifecycle — a planned leave with drain, a
// kill -9 mid-handoff (import target partitioned, then the leaver's
// filesystem crashes), restart-and-reconcile — closed by a retransmit
// storm of every ID ever served that must answer byte-identical with
// zero re-classification.
type ChaosChurnConfig struct {
	// Synth generates the dataset every replica serves.
	Synth synth.Config
	// Faults drives the per-link fault schedule and the victim journal's
	// torn-write behavior at the crash.
	Faults faults.Config
	// Dir is the root directory; each replica journals into a subdir.
	Dir string
	// Batch is events per /classify request.
	Batch int
	// CrashWindow is how many batches the dying victim journal-accepts
	// without answering before the kill -9.
	CrashWindow int
	// Tau is the rule-selection threshold.
	Tau float64
	// ReportPath, when non-empty, receives the JSON churn report.
	ReportPath string
}

// DefaultChaosChurnConfig returns the standard scenario: >= 10% of
// router->replica classify deliveries hit an injected link fault, the
// handoff import target is partitioned to force the partial transfer,
// and the mid-handoff victim's journal tears at the crash.
func DefaultChaosChurnConfig(seed int64, dir string) ChaosChurnConfig {
	return ChaosChurnConfig{
		Synth: synth.DefaultConfig(seed, 0.004),
		Faults: faults.Config{
			Seed:                   seed,
			ErrorRate:              0.15,
			MaxConsecutiveFailures: 2,
			AckLossRate:            0.5, // half the faults lose the response, not the request
			TornWriteRate:          1,
		},
		Dir:         dir,
		Batch:       32,
		CrashWindow: 4,
		Tau:         0.001,
	}
}

// ChaosChurnReport is the outcome of one churn chaos run.
type ChaosChurnReport struct {
	Replicas int
	Batches  int
	Events   int

	// Link-fault accounting across all router->replica links.
	LinkKeys          int
	FaultedKeys       int
	RequestsDropped   int64
	ResponsesLost     int64
	PartitionRefusals int64
	Failovers         uint64

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
	CrashAccepted    int
	RecoveredResults int
	RecoveredPending int
	TornTailBytes    int64
	VictimReplayed   int

	// Reconciliation when the crashed node returns on probation.
	ReconcileReplayed     uint64
	PendingAfterReconcile int64

	// Retransmit storm over every ID ever served. StormReclassified is
	// the cluster-wide EventsIn delta during the storm — zero means
	// every retransmit was answered from a replica ledger.
	StormRetransmits  int
	StormReclassified uint64

	// Divergence counters — all must be zero.
	LostBatches   int
	StormDiverged int
}

// churnID is the stable request ID of batch b — identical across
// retransmits, handoffs, and replica incarnations.
func churnID(b int) string { return fmt.Sprintf("churn-%04d", b) }

// churnBody marshals a batch exactly like serve.Client does, so the
// raw /classify payload is byte-stable across retransmits.
func churnBody(events []dataset.DownloadEvent) ([]byte, error) {
	var body []byte
	for i := range events {
		line, err := export.AppendEventLine(body, &events[i])
		if err != nil {
			return nil, err
		}
		body = append(line, '\n')
	}
	return body, nil
}

// RunChaosChurn replays a synth trace through a 3-replica journaled
// cluster under link faults while the membership churns underneath it:
// replica 0 leaves cleanly (its dedup history drains to the new ring
// owners before it is forgotten), replica 1 dies mid-handoff (its
// planned leave fails against a partitioned import target, then kill
// -9 with a torn journal tail), and later restarts into probation,
// where readmission reconciles its trapped history to the current
// owners. A final retransmit storm re-sends every ID ever served and
// holds the cluster to the exactly-once bar: zero lost, zero
// re-classified, byte-identical response bodies.
func RunChaosChurn(cfg ChaosChurnConfig) (*ChaosChurnReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("experiments: chaos-churn: empty dir")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-churn: %w", err)
	}
	inj, err := faults.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}

	// The deterministic world every replica incarnation shares.
	p, err := Run(cfg.Synth)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-churn: pipeline: %w", err)
	}
	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		return nil, err
	}
	months := p.Store.Months()
	if len(months) < 2 {
		return nil, fmt.Errorf("experiments: chaos-churn: need >= 2 months")
	}
	train, err := ex.Instances(p.Store.EventIndexesInMonth(months[0]))
	if err != nil {
		return nil, err
	}
	clf, err := classify.Train(train, cfg.Tau, classify.Reject)
	if err != nil {
		return nil, err
	}
	all := p.Store.Events()
	var replay []dataset.DownloadEvent
	for _, idx := range p.Store.EventIndexesInMonth(months[1]) {
		replay = append(replay, all[idx])
	}
	nBatches := (len(replay) + cfg.Batch - 1) / cfg.Batch
	if nBatches < 12 {
		return nil, fmt.Errorf("experiments: chaos-churn: %d batches too few to stage the scenario (need >= 12)", nBatches)
	}
	batchOf := func(b int) []dataset.DownloadEvent {
		lo, hi := b*cfg.Batch, (b+1)*cfg.Batch
		if hi > len(replay) {
			hi = len(replay)
		}
		return replay[lo:hi]
	}

	rep := &ChaosChurnReport{Replicas: 3, Batches: nBatches, Events: len(replay)}
	ctx := context.Background()

	// ---- Boot the cluster: replica 0 leaves cleanly mid-run, replica 1
	// is the mid-handoff kill -9 victim (journaling through a crashable
	// filesystem), replica 2 survives and absorbs the handoffs.
	fs, err := faults.NewCrashFS(inj)
	if err != nil {
		return nil, err
	}
	nodes := make([]*chaosNode, 3)
	for i := range nodes {
		var open func(string) (journal.File, error)
		if i == 1 {
			open = func(path string) (journal.File, error) { return fs.Open(path) }
		}
		n, _, _, err := startChaosNode("", filepath.Join(cfg.Dir, fmt.Sprintf("replica-%d", i)), ex, clf, open)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos-churn: replica %d: %w", i, err)
		}
		defer n.stop()
		nodes[i] = n
	}
	leaver, victim, survivor := nodes[0], nodes[1], nodes[2]
	addrs := []string{leaver.addr, victim.addr, survivor.addr}

	linkT, err := faults.NewTransport(inj, http.DefaultTransport)
	if err != nil {
		return nil, err
	}
	rt, err := cluster.NewRouter(cluster.Options{
		Replicas: addrs,
		//lint:allow retrypolicy the chaos harness wires the fault-injecting link transport directly; the router supplies the breaker/failover layer above it
		HTTPClient:       &http.Client{Transport: linkT},
		BreakerThreshold: 3,
		BreakerReset:     50 * time.Millisecond,
		ProbeInterval:    0, // probes are driven manually for determinism
		ProbeTimeout:     time.Second,
		EjectAfter:       3,
		// HedgeDelay stays 0: timer-raced duplicate classification would
		// make the storm's zero-reclassification accounting timing-
		// dependent.
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &serve.Client{BaseURL: front.URL}
	probeRounds := func(k int) {
		for i := 0; i < k; i++ {
			rt.ProbeAll(ctx)
		}
	}

	// Raw-body bookkeeping: the storm's byte-identity check compares
	// against the first response the client ever saw for each ID, so
	// serving goes through ClassifyRaw (one attempt per call) wrapped in
	// the harness's own retry.
	pol := retry.Policy{MaxAttempts: 6, InitialBackoff: 10 * time.Millisecond}
	served := make(map[string][]byte, nBatches)   // id -> first response bytes
	payloads := make(map[string][]byte, nBatches) // id -> request body
	sendThroughRouter := func(b int) error {
		id := churnID(b)
		body, err := churnBody(batchOf(b))
		if err != nil {
			return err
		}
		var data []byte
		err = retry.Do(ctx, pol, func(ctx context.Context) error {
			d, _, derr := client.ClassifyRaw(ctx, id, "", body, 0)
			if derr != nil {
				return derr
			}
			data = d
			return nil
		})
		if err != nil {
			rep.LostBatches++
			return nil
		}
		if _, ok := served[id]; !ok {
			served[id] = data
			payloads[id] = body
		}
		return nil
	}

	// Scenario timeline over the batch sequence.
	leaveAt := nBatches / 3
	partialAt := nBatches / 2
	restartAt := 3 * nBatches / 4

	// ---- Phase 1: three healthy replicas under link faults.
	for b := 0; b < leaveAt; b++ {
		if err := sendThroughRouter(b); err != nil {
			return nil, err
		}
	}

	// ---- The planned leave. Replica 0 drains its dedup history to the
	// two-node ring's owners before the router forgets it; everything it
	// served must keep answering from the survivors' ledgers.
	chunksBefore := rt.Metrics().HandoffChunks.Load()
	entriesBefore := rt.Metrics().HandoffEntries.Load()
	if err := rt.Leave(ctx, leaver.addr); err != nil {
		return nil, fmt.Errorf("experiments: chaos-churn: planned leave: %w", err)
	}
	rep.LeaveChunks = rt.Metrics().HandoffChunks.Load() - chunksBefore
	rep.LeaveEntries = rt.Metrics().HandoffEntries.Load() - entriesBefore
	for _, n := range rt.Status().Nodes {
		if n.Addr == leaver.addr {
			return nil, fmt.Errorf("experiments: chaos-churn: leaver still in membership after Leave")
		}
		if n.HandoffPending != 0 {
			return nil, fmt.Errorf("experiments: chaos-churn: %s owes %d entries after clean leave", n.Addr, n.HandoffPending)
		}
	}
	leaver.stop()

	// ---- Phase 2: the two-node ring carries the load.
	for b := leaveAt; b < partialAt; b++ {
		if err := sendThroughRouter(b); err != nil {
			return nil, err
		}
	}

	// ---- Kill -9 mid-handoff. The victim's planned leave runs against
	// a partitioned import target: the transfer cannot complete, so
	// Leave must fail without splitting authority — the victim returns
	// to rotation (degraded) still answering for its history, the debt
	// visible on the pending gauge. Then the "kill": engine down (the
	// next batches are journal-accepted but never answered), filesystem
	// crash with a torn tail, listener gone.
	linkT.Partition(survivor.addr)
	if err := rt.Leave(ctx, victim.addr); err == nil {
		return nil, fmt.Errorf("experiments: chaos-churn: leave succeeded with the import target partitioned")
	}
	rep.PartialLeaveFailed = true
	rep.HandoffFails = rt.Metrics().HandoffFails.Load()
	for _, n := range rt.Status().Nodes {
		if n.Addr != victim.addr {
			continue
		}
		if n.State != "degraded" {
			return nil, fmt.Errorf("experiments: chaos-churn: mid-handoff victim state = %s, want degraded", n.State)
		}
		rep.PartialPending = n.HandoffPending
	}
	if rep.PartialPending == 0 {
		return nil, fmt.Errorf("experiments: chaos-churn: partial handoff left no visible pending debt")
	}

	victim.engine.Close()
	killClient := &serve.Client{BaseURL: "http://" + victim.addr, Retry: retry.Policy{MaxAttempts: 1}}
	for b := partialAt; b < partialAt+cfg.CrashWindow; b++ {
		if _, err := killClient.ClassifyWithID(ctx, churnID(b), batchOf(b)); err == nil {
			return nil, fmt.Errorf("experiments: chaos-churn: batch %d answered by a dead engine", b)
		}
	}
	rep.CrashAccepted = cfg.CrashWindow
	if err := fs.Crash(); err != nil {
		return nil, err
	}
	tornBatch := batchOf(partialAt)
	tornVerdicts := make([]serve.VerdictRecord, 0, len(tornBatch))
	for i := range tornBatch {
		ev := &tornBatch[i]
		vec, verr := ex.Vector(ev)
		if verr != nil {
			return nil, verr
		}
		v, matched := clf.ClassifyFile([]features.Instance{{Vector: vec, File: ev.File}})
		tornVerdicts = append(tornVerdicts, serve.VerdictRecord{
			Type: "verdict", File: string(ev.File), Verdict: v.String(), Generation: 1, Rules: matched,
		})
	}
	if _, err := appendTornResult(victim.dir, chaosNodeShards, churnID(partialAt), tornVerdicts); err != nil {
		return nil, err
	}
	victim.ln.Close()
	victim.hsrv.Close()
	victim.srv.Close()
	// No ledger.Close(): kill -9 leaves no chance to flush.
	victim.stopped = true

	// Heal the partition; probes eject the corpse, flipping its sticky
	// pins into the reconciliation window.
	linkT.Heal(survivor.addr)
	probeRounds(3)
	if st := nodeState(rt, victim.addr); st != "ejected" {
		return nil, fmt.Errorf("experiments: chaos-churn: victim state after probes = %s, want ejected", st)
	}

	// ---- Phase 3: the survivor carries the ring alone; the crash-window
	// batches are retransmitted through the router (the client never
	// heard verdicts for them).
	for b := partialAt; b < restartAt; b++ {
		if err := sendThroughRouter(b); err != nil {
			return nil, err
		}
	}

	// ---- Restart and reconcile. The victim returns on its original
	// address, recovering its journal — completed results, the imports it
	// acked before the crash, the accepted-but-unanswered crash window,
	// and the torn tail to discard. The readmitting probe round must pull
	// its export and re-home the entries the current ring no longer
	// assigns to it.
	restarted, rec, replayed, err := startChaosNode(victim.addr, victim.dir, ex, clf, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-churn: victim restart: %w", err)
	}
	defer restarted.stop()
	rep.RecoveredResults = rec.Results
	rep.RecoveredPending = len(rec.Pending)
	rep.TornTailBytes = rec.TornTail
	rep.VictimReplayed = replayed
	replayedBefore := rt.Metrics().HandoffReplayed.Load()
	probeRounds(1)
	if st := nodeState(rt, victim.addr); st == "ejected" {
		return nil, fmt.Errorf("experiments: chaos-churn: victim not readmitted after restart")
	}
	rep.ReconcileReplayed = rt.Metrics().HandoffReplayed.Load() - replayedBefore
	for _, n := range rt.Status().Nodes {
		if n.Addr == victim.addr {
			rep.PendingAfterReconcile = n.HandoffPending
		}
	}
	if rep.PendingAfterReconcile != 0 {
		return nil, fmt.Errorf("experiments: chaos-churn: victim still owes %d entries after reconcile", rep.PendingAfterReconcile)
	}
	live := []*chaosNode{restarted, survivor}
	probeRounds(2)
	for _, n := range live {
		if st := nodeState(rt, n.addr); st != "healthy" {
			return nil, fmt.Errorf("experiments: chaos-churn: %s state after reconcile = %s, want healthy", n.addr, st)
		}
	}

	// ---- Phase 4: steady state on the reconciled two-node ring.
	for b := restartAt; b < nBatches; b++ {
		if err := sendThroughRouter(b); err != nil {
			return nil, err
		}
	}

	// ---- The retransmit storm: every ID ever served is re-sent under
	// its original ID. Whatever node answers — the survivor, the
	// restarted victim, or an importer that absorbed a handoff — must
	// return the exact bytes of the first response, and cluster-wide
	// EventsIn may not move. One probe round first so a breaker left
	// open by transient faults cannot steer a pinned ID to a fresh
	// classification.
	probeRounds(1)
	stormBase := clusterEventsIn(live)
	for id, want := range served {
		var data []byte
		err := retry.Do(ctx, pol, func(ctx context.Context) error {
			d, _, derr := client.ClassifyRaw(ctx, id, "", payloads[id], 0)
			if derr != nil {
				return derr
			}
			data = d
			return nil
		})
		if err != nil {
			rep.LostBatches++
			continue
		}
		if !bytes.Equal(data, want) {
			rep.StormDiverged++
		}
	}
	rep.StormRetransmits = len(served)
	rep.StormReclassified = clusterEventsIn(live) - stormBase

	rep.LinkKeys, rep.FaultedKeys = linkT.Counts()
	ts := linkT.Stats()
	rep.RequestsDropped = ts.Dropped
	rep.ResponsesLost = ts.ResponsesLost
	rep.PartitionRefusals = ts.PartitionRefusals
	rep.Failovers = rt.Metrics().Failover.Load()

	if cfg.ReportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.ReportPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("experiments: chaos-churn: write report: %w", err)
		}
	}
	return rep, nil
}

// ChaosChurn is the registry adapter: run the default scenario in a
// temporary directory (report path from CHURN_REPORT when set) and
// render the report.
func ChaosChurn(p *Pipeline, w io.Writer) error {
	dir, err := os.MkdirTemp("", "chaos-churn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := DefaultChaosChurnConfig(p.Config.Seed, dir)
	cfg.ReportPath = os.Getenv("CHURN_REPORT")
	rep, err := RunChaosChurn(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Chaos-churn run: %d replicas, planned leave + kill -9 mid-handoff + restart-and-reconcile\n\n", rep.Replicas)
	fmt.Fprintf(w, "workload                  %6d batches, %d events\n", rep.Batches, rep.Events)
	fmt.Fprintf(w, "link faults               %6d/%d request keys (%d dropped, %d responses lost, %d partition refusals)\n",
		rep.FaultedKeys, rep.LinkKeys, rep.RequestsDropped, rep.ResponsesLost, rep.PartitionRefusals)
	fmt.Fprintf(w, "router failovers          %6d\n", rep.Failovers)
	fmt.Fprintf(w, "planned leave             %6d chunks, %d entries drained\n", rep.LeaveChunks, rep.LeaveEntries)
	fmt.Fprintf(w, "partial handoff           failed=%v, %d entries pinned to source, %d push failures\n",
		rep.PartialLeaveFailed, rep.PartialPending, rep.HandoffFails)
	fmt.Fprintf(w, "victim kill window        %6d batches (accepted, never answered)\n", rep.CrashAccepted)
	fmt.Fprintf(w, "victim recovery           %6d results, %d pending replayed, %d torn bytes discarded\n",
		rep.RecoveredResults, rep.VictimReplayed, rep.TornTailBytes)
	fmt.Fprintf(w, "reconciliation            %6d entries re-homed, %d pending after\n", rep.ReconcileReplayed, rep.PendingAfterReconcile)
	fmt.Fprintf(w, "\nretransmit storm over %d served IDs:\n", rep.StormRetransmits)
	fmt.Fprintf(w, "  events reclassified     %6d (must be 0: all answered from ledgers)\n", rep.StormReclassified)
	fmt.Fprintf(w, "  diverged bodies         %6d (must be 0: byte-identical)\n", rep.StormDiverged)
	fmt.Fprintf(w, "\nlost batches              %6d\n", rep.LostBatches)
	if rep.LostBatches > 0 || rep.StormDiverged > 0 || rep.StormReclassified > 0 {
		return fmt.Errorf("experiments: chaos-churn: %d lost, %d diverged, %d reclassified",
			rep.LostBatches, rep.StormDiverged, rep.StormReclassified)
	}
	return nil
}
