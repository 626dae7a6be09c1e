package experiments

import (
	"fmt"

	"repro/internal/chaoskit"
	"repro/internal/faults"
	"repro/internal/synth"
)

// chaosClusterErrorRate: ~25% of router->replica classify deliveries
// hit an injected link fault (request dropped or response lost after
// replica-side processing).
const chaosClusterErrorRate = 0.25

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
func RunChaosCluster(seed int64, dir string) (*ChaosClusterReport, error) {
	w, err := bootChaosWorld("chaos-cluster", seed)
	if err != nil {
		return nil, err
	}
	// Replica 0 is the kill -9 victim, replica 1 takes the router-side
	// partition, replica 2 the partition during the reload.
	const victim, partitioned, reloadVictim = 0, 1, 2
	c, err := bootChaosKit("chaos-cluster", w, chaoskit.Options{
		Dir: dir, Replicas: chaosReplicas, Router: true, Faults: chaosLinkFaults(seed, chaosClusterErrorRate),
		Shards: chaosNodeShards, CompactBytes: chaosCompactBytes,
		Batch: chaosBatch, MinBatches: 16, IDPrefix: "cc",
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	nBatches := c.Batches()
	rep := &ChaosClusterReport{Replicas: chaosReplicas, Batches: nBatches, Events: len(w.Replay)}

	// Scenario timeline over the batch sequence.
	killAt := nBatches / 4
	partitionAt := nBatches / 2
	healAt := 5 * nBatches / 8
	reloadAt := 3 * nBatches / 4
	reloadHealAt := 7 * nBatches / 8

	// Phase A1: healthy cluster under link faults.
	c.SendRange(0, killAt)

	// The kill -9; probes notice the dead replica and eject it.
	c.Kill9(victim, killAt, chaosCrashWindow)
	rep.CrashAccepted = chaosCrashWindow
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

// What the four serving scenarios (chaos-serve, -cluster, -churn,
// -lifecycle) share: the corpus scale and rule threshold of their
// world, 32-event /classify batches, a kill window of four batches the
// dying node journal-accepts without answering, and three replicas —
// a victim, a partitioned node and a survivor. Every cluster replica
// opens its ledger on two journal shards, so kill -9 recovery, handoff
// and retransmit assertions all run with the merge crossing shards,
// and every ledger compacts at 16 KiB, low enough to rewrite the log
// mid-run.
const (
	chaosServingScale = 0.004
	chaosTau          = 0.001
	chaosBatch        = 32
	chaosCrashWindow  = 4
	chaosReplicas     = 3
	chaosNodeShards   = 2
	chaosCompactBytes = 1 << 14
)

// bootChaosWorld generates a serving scenario's world from its seed.
func bootChaosWorld(name string, seed int64) (*ServingWorld, error) {
	w, err := BootServingWorld(synth.DefaultConfig(seed, chaosServingScale), chaosTau)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return w, nil
}

// chaosLinkFaults is the serving scenarios' fault schedule at one error
// rate: at most two failures in a row, half the faults losing the
// response rather than the request, and a journal that tears at every
// crash.
func chaosLinkFaults(seed int64, errorRate float64) *faults.Config {
	return &faults.Config{
		Seed:                   seed,
		ErrorRate:              errorRate,
		MaxConsecutiveFailures: 2,
		AckLossRate:            0.5,
		TornWriteRate:          1,
	}
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
