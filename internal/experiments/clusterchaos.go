package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ChaosClusterConfig parameterizes the cluster-wide chaos harness: a
// 3-replica consistent-hash cluster behind a health-aware router,
// replaying a synth trace under injected link faults, one mid-replay
// replica kill -9 (journal recovery on restart), one router-side
// partition, and a generation-consistent reload with a replica
// partitioned.
type ChaosClusterConfig struct {
	// Synth generates the dataset every replica serves.
	Synth synth.Config
	// Faults drives the per-link fault schedule and the victim journal's
	// torn-write behavior at the crash.
	Faults faults.Config
	// Dir is the root directory; each replica journals into a subdir.
	Dir string
	// Replicas is the cluster size (>= 3: the scenario needs a victim, a
	// partitioned node, and a survivor).
	Replicas int
	// Batch is events per /classify request.
	Batch int
	// CrashWindow is how many batches the dying victim journal-accepts
	// without answering before the kill -9.
	CrashWindow int
	// Tau is the rule-selection threshold.
	Tau float64
}

// DefaultChaosClusterConfig returns the standard scenario: ~25% of
// router->replica classify deliveries hit an injected link fault
// (request dropped or response lost after replica-side processing),
// four batches are caught in the victim's kill window, and the victim's
// journal tears at the crash.
func DefaultChaosClusterConfig(seed int64, dir string) ChaosClusterConfig {
	return ChaosClusterConfig{
		Synth: synth.DefaultConfig(seed, 0.004),
		Faults: faults.Config{
			Seed:                   seed,
			ErrorRate:              0.25,
			MaxConsecutiveFailures: 2,
			AckLossRate:            0.5, // half the faults lose the response, not the request
			TornWriteRate:          1,
		},
		Dir:         dir,
		Replicas:    3,
		Batch:       32,
		CrashWindow: 4,
		Tau:         0.001,
	}
}

// ChaosClusterReport is the outcome of one cluster chaos run.
type ChaosClusterReport struct {
	Replicas int
	Batches  int
	Events   int

	// Link-fault accounting across all router->replica links.
	LinkKeys          int
	FaultedKeys       int
	RequestsDropped   int64
	ResponsesLost     int64
	PartitionRefusals int64
	// Router-side failover accounting.
	Failovers uint64

	// The victim's kill -9 and recovery.
	CrashAccepted    int
	RecoveredResults int
	RecoveredPending int
	TornTailBytes    int64
	VictimReplayed   int

	// Retransmit storm: every batch re-sent through the router after all
	// failures healed. StormReclassified is the cluster-wide EventsIn
	// delta during the storm — zero means every retransmit was answered
	// from a replica ledger via sticky routing, none re-classified.
	StormReclassified uint64

	// Generation-consistent reload with one replica partitioned.
	DegradedDuringPartition bool
	ReloadGeneration        uint64
	WrongGenVerdicts        int
	// DegradedWindowLeaks counts events the partitioned (stale-
	// generation) replica classified while the router was degraded —
	// zero means no verdict was attributed to a generation not present
	// on all healthy replicas.
	DegradedWindowLeaks uint64

	// Divergence counters — all must be zero.
	LostBatches        int
	MismatchedVerdicts int
	StormDiverged      int
}

// chaosClusterID is the stable request ID of batch b — identical across
// retransmits, failovers, and replica incarnations.
func chaosClusterID(b int) string { return fmt.Sprintf("cc-%04d", b) }

// chaosNode is one replica of the chaos cluster: a full longtaild
// equivalent (engine + journaled ledger + server) on a real listener,
// restartable on the same address after a simulated kill -9.
type chaosNode struct {
	addr   string
	dir    string
	engine *serve.Engine
	ledger *serve.Ledger
	srv    *serve.Server
	hsrv   *http.Server
	ln     net.Listener
	// stopped marks a replica already torn down (gracefully or by the
	// kill -9 path), making stop idempotent.
	stopped bool
}

// chaosNodeShards is the journal shard count every chaos replica opens
// with. Torn-tail writers (appendTornResult) must pass the same value
// so the fragment lands in the shard the restarted node will scan.
const chaosNodeShards = 2

// startChaosNode boots a replica. addr "" picks a fresh port; a
// concrete addr rebinds a restarted replica where the ring expects it.
// openFile, when non-nil, routes journal I/O through a CrashFS. The
// recovery report and replay count cover whatever the journal dir
// already holds. Extra srvOpts decorate the server (the lifecycle
// harness appends its shadow-metrics exposition here).
func startChaosNode(addr, dir string, ex *features.Extractor, clf *classify.Classifier, openFile func(string) (journal.File, error), srvOpts ...serve.ServerOption) (*chaosNode, *serve.LedgerRecovery, int, error) {
	engine, err := serve.NewEngine(ex, clf, serve.EngineConfig{}, &serve.Metrics{})
	if err != nil {
		return nil, nil, 0, err
	}
	// Every replica stripes its journal over chaosNodeShards shards, so
	// the cluster harnesses (chaos-cluster, chaos-churn, chaos-lifecycle)
	// all run their kill -9 / handoff / retransmit assertions with the
	// recovery merge crossing shards.
	ledger, rec, err := serve.OpenLedger(serve.LedgerOptions{
		Journal:      journal.Options{Dir: dir, OpenFile: openFile},
		Shards:       chaosNodeShards,
		CompactBytes: 1 << 14,
	})
	if err != nil {
		engine.Close()
		return nil, nil, 0, err
	}
	replayed, err := serve.RecoverLedger(engine, ledger, rec)
	if err != nil {
		engine.Close()
		return nil, nil, 0, err
	}
	srv, err := serve.NewServer(engine, classify.Reject, append([]serve.ServerOption{serve.WithLedger(ledger)}, srvOpts...)...)
	if err != nil {
		engine.Close()
		return nil, nil, 0, err
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		engine.Close()
		return nil, nil, 0, err
	}
	n := &chaosNode{
		addr:   ln.Addr().String(),
		dir:    dir,
		engine: engine,
		ledger: ledger,
		srv:    srv,
		hsrv:   &http.Server{Handler: srv.Handler()},
		ln:     ln,
	}
	go n.hsrv.Serve(ln)
	return n, rec, replayed, nil
}

// stop shuts a replica down gracefully (survivors at the end of a run).
// It is a no-op for a replica already torn down by the kill -9 path.
func (n *chaosNode) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.hsrv.Close()
	n.srv.Close()
	n.engine.Close()
	n.ledger.Close()
}

// RunChaosCluster replays a synth trace through a 3-replica cluster
// behind the consistent-hash router, under deterministic link faults on
// every router->replica link, then proves the cluster-wide exactly-once
// contract through three ordeals: a mid-replay kill -9 of one replica
// (accepted-but-unanswered batches in its journal, torn tail included),
// a router-side partition of a second replica, and a rule reload with a
// replica partitioned (advertisement must roll back). After everything
// heals, a full retransmit storm must be answered entirely from replica
// ledgers — zero lost, zero re-classified, byte-identical to offline
// classification.
func RunChaosCluster(cfg ChaosClusterConfig) (*ChaosClusterReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("experiments: chaos-cluster: empty dir")
	}
	if cfg.Replicas < 3 {
		return nil, fmt.Errorf("experiments: chaos-cluster: need >= 3 replicas, have %d", cfg.Replicas)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-cluster: %w", err)
	}
	inj, err := faults.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}

	// The deterministic world every replica incarnation and the offline
	// reference share.
	p, err := Run(cfg.Synth)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-cluster: pipeline: %w", err)
	}
	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		return nil, err
	}
	months := p.Store.Months()
	if len(months) < 2 {
		return nil, fmt.Errorf("experiments: chaos-cluster: need >= 2 months")
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
	if nBatches < 16 {
		return nil, fmt.Errorf("experiments: chaos-cluster: %d batches too few to stage the scenario (need >= 16)", nBatches)
	}
	batchOf := func(b int) []dataset.DownloadEvent {
		lo, hi := b*cfg.Batch, (b+1)*cfg.Batch
		if hi > len(replay) {
			hi = len(replay)
		}
		return replay[lo:hi]
	}
	offline := func(ev *dataset.DownloadEvent) (string, error) {
		vec, err := ex.Vector(ev)
		if err != nil {
			return "", err
		}
		v, matched := clf.ClassifyFile([]features.Instance{{Vector: vec, File: ev.File}})
		return fmt.Sprintf("%s %s %v", ev.File, v, matched), nil
	}

	rep := &ChaosClusterReport{Replicas: cfg.Replicas, Batches: nBatches, Events: len(replay)}
	ctx := context.Background()

	// ---- Boot the cluster: replica 0 is the kill -9 victim (journaling
	// through a crashable filesystem), replica 1 takes the router-side
	// partition, replica 2 survives untouched.
	fs, err := faults.NewCrashFS(inj)
	if err != nil {
		return nil, err
	}
	nodes := make([]*chaosNode, cfg.Replicas)
	for i := range nodes {
		var open func(string) (journal.File, error)
		if i == 0 {
			open = func(path string) (journal.File, error) { return fs.Open(path) }
		}
		n, _, _, err := startChaosNode("", filepath.Join(cfg.Dir, fmt.Sprintf("replica-%d", i)), ex, clf, open)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos-cluster: replica %d: %w", i, err)
		}
		defer n.stop()
		nodes[i] = n
	}
	victim, partitioned := nodes[0], nodes[1]
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}

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
		// dependent. Failover-on-error is the path under test.
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

	// Scenario timeline over the batch sequence.
	killAt := nBatches / 4
	partitionAt := nBatches / 2
	healAt := 5 * nBatches / 8
	reloadAt := 3 * nBatches / 4
	reloadHealAt := 7 * nBatches / 8

	phaseKeys := make([][]string, nBatches)
	sendThroughRouter := func(b int, wantGen uint64) error {
		events := batchOf(b)
		verdicts, err := client.ClassifyWithID(ctx, chaosClusterID(b), events)
		if err != nil {
			rep.LostBatches++
			return nil
		}
		if len(verdicts) != len(events) {
			rep.LostBatches++
			return nil
		}
		keys := make([]string, len(verdicts))
		for i := range events {
			want, err := offline(&events[i])
			if err != nil {
				return err
			}
			keys[i] = verdicts[i].Key()
			if keys[i] != want {
				rep.MismatchedVerdicts++
			}
			if wantGen > 0 && verdicts[i].Generation != wantGen {
				rep.WrongGenVerdicts++
			}
		}
		phaseKeys[b] = keys
		return nil
	}

	// ---- Phase A1: healthy cluster under link faults.
	for b := 0; b < killAt; b++ {
		if err := sendThroughRouter(b, 0); err != nil {
			return nil, err
		}
	}

	// ---- The kill -9. The victim's engine stops first, so the next
	// batches are journal-accepted durably but never answered — then the
	// filesystem crashes (unsynced bytes vanish, one result record tears
	// mid-flush) and the listener dies. The client retransmits those
	// batches through the router below; survivors serve them.
	victim.engine.Close()
	killClient := &serve.Client{BaseURL: "http://" + victim.addr, Retry: retry.Policy{MaxAttempts: 1}}
	for b := killAt; b < killAt+cfg.CrashWindow; b++ {
		if _, err := killClient.ClassifyWithID(ctx, chaosClusterID(b), batchOf(b)); err == nil {
			return nil, fmt.Errorf("experiments: chaos-cluster: batch %d answered by a dead engine", b)
		}
	}
	rep.CrashAccepted = cfg.CrashWindow
	if err := fs.Crash(); err != nil {
		return nil, err
	}
	tornBatch := batchOf(killAt)
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
	if _, err := appendTornResult(victim.dir, chaosNodeShards, chaosClusterID(killAt), tornVerdicts); err != nil {
		return nil, err
	}
	victim.ln.Close()
	victim.hsrv.Close()
	victim.srv.Close()
	// No ledger.Close(): kill -9 leaves no chance to flush. The crashed
	// filesystem already discarded whatever was not fsynced.
	victim.stopped = true

	// Probes notice the dead replica and eject it from the ring.
	probeRounds(3)
	if st := nodeState(rt, victim.addr); st != "ejected" {
		return nil, fmt.Errorf("experiments: chaos-cluster: victim state after probes = %s, want ejected", st)
	}

	// ---- Phase A2: two survivors carry the ring; the crash-window
	// batches are retransmitted through the router (the client never
	// heard verdicts for them) and land on ring successors.
	for b := killAt; b < partitionAt; b++ {
		if err := sendThroughRouter(b, 0); err != nil {
			return nil, err
		}
	}

	// ---- Router-side partition: the link to replica 1 is cut. Health
	// probes fail through the same transport, so the router ejects it.
	linkT.Partition(partitioned.addr)
	probeRounds(3)
	if st := nodeState(rt, partitioned.addr); st != "ejected" {
		return nil, fmt.Errorf("experiments: chaos-cluster: partitioned node state = %s, want ejected", st)
	}
	for b := partitionAt; b < healAt; b++ {
		if err := sendThroughRouter(b, 0); err != nil {
			return nil, err
		}
	}

	// ---- Heal everything: the partition lifts and the victim restarts
	// on its original address, recovering its journal — completed
	// results, the accepted-but-unanswered crash window, and the torn
	// tail to discard.
	linkT.Heal(partitioned.addr)
	restarted, rec, replayed, err := startChaosNode(victim.addr, victim.dir, ex, clf, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-cluster: victim restart: %w", err)
	}
	defer restarted.stop()
	nodes[0] = restarted
	rep.RecoveredResults = rec.Results
	rep.RecoveredPending = len(rec.Pending)
	rep.TornTailBytes = rec.TornTail
	rep.VictimReplayed = replayed
	probeRounds(2)
	for _, n := range nodes {
		if st := nodeState(rt, n.addr); st != "healthy" {
			return nil, fmt.Errorf("experiments: chaos-cluster: %s state after heal = %s, want healthy", n.addr, st)
		}
	}
	for b := healAt; b < reloadAt; b++ {
		if err := sendThroughRouter(b, 0); err != nil {
			return nil, err
		}
	}

	// ---- Phase B: the retransmit storm. Every batch so far is re-sent
	// under its original ID. Sticky routing must answer each one from
	// the ledger of the replica that served it: cluster-wide EventsIn
	// may not move, and the bytes must match what the client saw first.
	// One probe round first: transient faults in the post-heal phase may
	// have left a breaker open, and an open breaker would skip a sticky
	// candidate — rerouting a pinned batch to a replica that would
	// classify it fresh. The probe's success resets every breaker
	// (out-of-band health evidence), making the storm's accounting
	// independent of how much wall clock the phases above consumed.
	probeRounds(1)
	stormBase := clusterEventsIn(nodes)
	for b := 0; b < reloadAt; b++ {
		events := batchOf(b)
		verdicts, err := client.ClassifyWithID(ctx, chaosClusterID(b), events)
		if err != nil || len(verdicts) != len(events) {
			rep.LostBatches++
			continue
		}
		if phaseKeys[b] == nil {
			continue // batch was lost in phase A and already counted
		}
		for i := range verdicts {
			if verdicts[i].Key() != phaseKeys[b][i] {
				rep.StormDiverged++
			}
		}
	}
	rep.StormReclassified = clusterEventsIn(nodes) - stormBase

	// ---- Phase C: generation-consistent reload. With replica 2
	// partitioned, one /admin/reload through the router must NOT
	// advertise the new generation: the router degrades, the laggard is
	// demoted, and every verdict served meanwhile carries the generation
	// the healthy replicas converged on.
	var rules bytes.Buffer
	if err := serve.ExportRules(&rules, clf); err != nil {
		return nil, err
	}
	reloadVictim := nodes[2]
	linkT.Partition(reloadVictim.addr)
	adminClient := &serve.Client{BaseURL: front.URL, Retry: retry.Policy{MaxAttempts: 1}}
	if _, err := adminClient.Reload(ctx, rules.Bytes()); err == nil {
		return nil, fmt.Errorf("experiments: chaos-cluster: partial reload reported success")
	}
	st := rt.Status()
	rep.DegradedDuringPartition = st.Status == "degraded" && st.Generation != st.TargetGeneration
	if !rep.DegradedDuringPartition {
		return nil, fmt.Errorf("experiments: chaos-cluster: router not degraded after partial reload (status %+v)", st)
	}
	staleBase := reloadVictim.engine.Metrics().EventsIn.Load()
	for b := reloadAt; b < reloadHealAt; b++ {
		if err := sendThroughRouter(b, st.TargetGeneration); err != nil {
			return nil, err
		}
	}
	rep.DegradedWindowLeaks = reloadVictim.engine.Metrics().EventsIn.Load() - staleBase

	// Heal: the prober reconciles the laggard to the target generation
	// (re-pushing the pending rules) and re-advertises.
	linkT.Heal(reloadVictim.addr)
	probeRounds(3)
	st = rt.Status()
	if st.Status != "ok" || st.Generation != st.TargetGeneration {
		return nil, fmt.Errorf("experiments: chaos-cluster: router did not re-advertise after heal (status %+v)", st)
	}
	rep.ReloadGeneration = st.Generation
	for b := reloadHealAt; b < nBatches; b++ {
		if err := sendThroughRouter(b, st.Generation); err != nil {
			return nil, err
		}
	}

	rep.LinkKeys, rep.FaultedKeys = linkT.Counts()
	ts := linkT.Stats()
	rep.RequestsDropped = ts.Dropped
	rep.ResponsesLost = ts.ResponsesLost
	rep.PartitionRefusals = ts.PartitionRefusals
	rep.Failovers = rt.Metrics().Failover.Load()
	return rep, nil
}

// nodeState reads one node's state from the router's health report.
func nodeState(rt *cluster.Router, addr string) string {
	for _, n := range rt.Status().Nodes {
		if n.Addr == addr {
			return n.State
		}
	}
	return "unknown"
}

// clusterEventsIn sums classified events across all live replica
// engines — the cluster-wide "work actually done" counter the storm
// phase asserts against.
func clusterEventsIn(nodes []*chaosNode) uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.engine.Metrics().EventsIn.Load()
	}
	return total
}

// ChaosCluster is the registry adapter: run the default scenario in a
// temporary directory and render the report.
func ChaosCluster(p *Pipeline, w io.Writer) error {
	dir, err := os.MkdirTemp("", "chaos-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := RunChaosCluster(DefaultChaosClusterConfig(p.Config.Seed, dir))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Chaos-cluster run: %d replicas, link faults + kill -9 + partition + degraded reload\n\n", rep.Replicas)
	fmt.Fprintf(w, "workload                  %6d batches, %d events\n", rep.Batches, rep.Events)
	fmt.Fprintf(w, "link faults               %6d/%d request keys (%d dropped, %d responses lost, %d partition refusals)\n",
		rep.FaultedKeys, rep.LinkKeys, rep.RequestsDropped, rep.ResponsesLost, rep.PartitionRefusals)
	fmt.Fprintf(w, "router failovers          %6d\n", rep.Failovers)
	fmt.Fprintf(w, "victim kill window        %6d batches (accepted, never answered)\n", rep.CrashAccepted)
	fmt.Fprintf(w, "victim recovery           %6d results, %d pending replayed, %d torn bytes discarded\n",
		rep.RecoveredResults, rep.VictimReplayed, rep.TornTailBytes)
	fmt.Fprintf(w, "reload generation         %6d (degraded while partitioned: %v)\n", rep.ReloadGeneration, rep.DegradedDuringPartition)
	fmt.Fprintf(w, "degraded-window leaks     %6d events on the stale replica\n", rep.DegradedWindowLeaks)
	fmt.Fprintf(w, "wrong-generation verdicts %6d\n", rep.WrongGenVerdicts)
	fmt.Fprintf(w, "\nretransmit storm over the first %d batches:\n", rep.Batches*3/4)
	fmt.Fprintf(w, "  events reclassified     %6d (must be 0: all answered from ledgers)\n", rep.StormReclassified)
	fmt.Fprintf(w, "  diverged verdicts       %6d\n", rep.StormDiverged)
	fmt.Fprintf(w, "\nlost batches              %6d\nmismatched verdicts       %6d\n", rep.LostBatches, rep.MismatchedVerdicts)
	if rep.LostBatches > 0 || rep.MismatchedVerdicts > 0 || rep.StormDiverged > 0 ||
		rep.StormReclassified > 0 || rep.WrongGenVerdicts > 0 || rep.DegradedWindowLeaks > 0 {
		return fmt.Errorf("experiments: chaos-cluster: %d lost, %d mismatched, %d storm-diverged, %d storm-reclassified, %d wrong-gen, %d degraded leaks",
			rep.LostBatches, rep.MismatchedVerdicts, rep.StormDiverged, rep.StormReclassified, rep.WrongGenVerdicts, rep.DegradedWindowLeaks)
	}
	return nil
}
