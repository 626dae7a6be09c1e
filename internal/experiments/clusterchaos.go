package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/chaoskit"
	"repro/internal/faults"
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

	// Link-fault accounting across all router->replica links, and the
	// router's failovers.
	chaoskit.LinkReport

	// The victim's kill -9 and recovery.
	CrashAccepted int
	chaoskit.Recovery
	VictimReplayed int

	// Generation-consistent reload with one replica partitioned.
	DegradedDuringPartition bool
	ReloadGeneration        uint64
	// DegradedWindowLeaks counts events the partitioned (stale-
	// generation) replica classified while the router was degraded —
	// zero means no verdict was attributed to a generation not present
	// on all healthy replicas.
	DegradedWindowLeaks uint64

	// The divergence counters, all of which must be zero: lost,
	// mismatched against offline, wrong generation, and the retransmit
	// storm's diverged / reclassified — every batch re-sent through the
	// router after all failures healed must be answered from a replica
	// ledger via sticky routing.
	chaoskit.Audit
}

// RunChaosCluster replays a synth trace through a 3-replica cluster
// behind the consistent-hash router, under deterministic link faults on
// every router->replica link, then proves the cluster-wide exactly-once
// contract through three ordeals: a mid-replay kill -9 of one replica
// (accepted-but-unanswered batches in its journal, torn tails included),
// a router-side partition of a second replica, and a rule reload with a
// replica partitioned (advertisement must roll back). After everything
// heals, a full retransmit storm must be answered entirely from replica
// ledgers — zero lost, zero re-classified, byte-identical to the first
// responses, which were byte-identical to offline classification. The
// fixture, the fault steps and the checkers are chaoskit's (DESIGN.md
// "Chaos kit").
func RunChaosCluster(cfg ChaosClusterConfig) (*ChaosClusterReport, error) {
	if cfg.Replicas < 3 {
		return nil, fmt.Errorf("experiments: chaos-cluster: need >= 3 replicas, have %d", cfg.Replicas)
	}
	w, err := BootServingWorld(cfg.Synth, cfg.Tau)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-cluster: %w", err)
	}
	// Replica 0 is the kill -9 victim, replica 1 takes the router-side
	// partition, replica 2 the partition during the reload.
	const victim, partitioned, reloadVictim = 0, 1, 2
	c, err := bootChaosKit("chaos-cluster", w, chaoskit.Options{
		Dir: cfg.Dir, Replicas: cfg.Replicas, Router: true, Faults: &cfg.Faults,
		Shards: chaosNodeShards, CompactBytes: chaosNodeCompactBytes,
		Batch: cfg.Batch, MinBatches: 16, IDPrefix: "cc",
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	nBatches := c.Batches()
	rep := &ChaosClusterReport{Replicas: cfg.Replicas, Batches: nBatches, Events: len(w.Replay)}

	// Scenario timeline over the batch sequence.
	killAt := nBatches / 4
	partitionAt := nBatches / 2
	healAt := 5 * nBatches / 8
	reloadAt := 3 * nBatches / 4
	reloadHealAt := 7 * nBatches / 8

	// Phase A1: healthy cluster under link faults.
	c.SendRange(0, killAt)

	// The kill -9; probes notice the dead replica and eject it.
	c.Kill9(victim, killAt, cfg.CrashWindow)
	rep.CrashAccepted = cfg.CrashWindow
	c.Probe(3)
	c.ExpectState("after the kill", "ejected", victim)

	// Phase A2: two survivors carry the ring; the crash-window batches
	// are retransmitted through the router (the client never heard
	// verdicts for them) and land on ring successors.
	c.SendRange(killAt, partitionAt)

	// Router-side partition: health probes fail through the same link,
	// so the router ejects replica 1.
	c.Partition(partitioned)
	c.Probe(3)
	c.ExpectState("after the partition", "ejected", partitioned)
	c.SendRange(partitionAt, healAt)

	// Heal everything: the partition lifts and the victim restarts,
	// recovering its journal — completed results, the accepted-but-
	// unanswered crash window, and the torn tails to discard.
	c.Heal(partitioned)
	rep.Recovery, rep.VictimReplayed = c.Restart(victim)
	c.Probe(2)
	c.ExpectState("after the heal", "healthy", victim, partitioned, reloadVictim)
	c.SendRange(healAt, reloadAt)

	// Phase B: the retransmit storm over every batch so far.
	c.Storm(0, reloadAt)

	// Phase C: generation-consistent reload. With replica 2 partitioned,
	// one /admin/reload through the router must NOT advertise the new
	// generation: the router degrades, the laggard is demoted, and every
	// verdict served meanwhile carries the generation the healthy
	// replicas converged on.
	c.Partition(reloadVictim)
	if _, err := c.Reload(w.Rules); err == nil {
		c.Failf("partial reload reported success")
	}
	st := c.Router.Status()
	rep.DegradedDuringPartition = st.Status == "degraded" && st.Generation != st.TargetGeneration
	if !rep.DegradedDuringPartition {
		c.Failf("router not degraded after partial reload (status %+v)", st)
	}
	stale := c.Nodes[reloadVictim].Engine.Metrics()
	staleBase := stale.EventsIn.Load()
	c.WantGeneration = st.TargetGeneration
	c.SendRange(reloadAt, reloadHealAt)
	rep.DegradedWindowLeaks = stale.EventsIn.Load() - staleBase

	// Heal: the prober reconciles the laggard to the target generation
	// (re-pushing the pending rules) and re-advertises.
	c.Heal(reloadVictim)
	c.Probe(3)
	st = c.Router.Status()
	if st.Status != "ok" || st.Generation != st.TargetGeneration {
		c.Failf("router did not re-advertise after heal (status %+v)", st)
	}
	rep.ReloadGeneration, c.WantGeneration = st.Generation, st.Generation
	c.SendRange(reloadHealAt, nBatches)

	rep.LinkReport, rep.Audit = c.LinkReport(), c.Audit
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-cluster: %w", err)
	}
	return rep, nil
}

// bootChaosKit boots a scenario's fixture over its world.
func bootChaosKit(name string, w *ServingWorld, o chaoskit.Options) (*chaoskit.Cluster, error) {
	o.Extractor, o.Rules, o.Offline, o.Events = w.Extractor, w.Rules, w.Offline, w.Replay
	c, err := chaoskit.Boot(o)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return c, nil
}

// The ledger every replica of the cluster harnesses (chaos-cluster,
// -churn, -lifecycle) opens: two journal shards, so kill -9 recovery,
// handoff and retransmit assertions all run with the merge crossing
// shards, and a compaction threshold low enough to snapshot mid-run.
const (
	chaosNodeShards       = 2
	chaosNodeCompactBytes = 1 << 14
)

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
	fmt.Fprintf(w, "  diverged batches        %6d\n", rep.StormDiverged)
	fmt.Fprintf(w, "\nlost batches              %6d\nmismatched verdicts       %6d\n", rep.LostBatches, rep.MismatchedVerdicts)
	if rep.LostBatches > 0 || rep.MismatchedVerdicts > 0 || rep.StormDiverged > 0 ||
		rep.StormReclassified > 0 || rep.WrongGenVerdicts > 0 || rep.DegradedWindowLeaks > 0 {
		return fmt.Errorf("experiments: chaos-cluster: %d lost, %d mismatched, %d storm-diverged, %d storm-reclassified, %d wrong-gen, %d degraded leaks",
			rep.LostBatches, rep.MismatchedVerdicts, rep.StormDiverged, rep.StormReclassified, rep.WrongGenVerdicts, rep.DegradedWindowLeaks)
	}
	return nil
}
