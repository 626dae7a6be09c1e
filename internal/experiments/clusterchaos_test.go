package experiments

import (
	"fmt"
	"testing"

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

	// Generation-consistent reload with one replica partitioned.
	DegradedDuringPartition bool
	ReloadGeneration        uint64
	// DegradedWindowLeaks counts events the partitioned (stale-
	// generation) replica classified while the router was degraded —
	// zero means no verdict was attributed to a generation not present
	// on all healthy replicas.
	DegradedWindowLeaks uint64

	// The first-reply counters, all of which must be zero: lost,
	// mismatched against offline, and wrong generation.
	chaoskit.Audit
}

// RunChaosCluster replays a synth trace through a 3-replica cluster
// behind the consistent-hash router, under deterministic link faults on
// every router->replica link, and reloads the rule set with a replica
// partitioned: the router must not advertise the new generation until
// every replica in rotation serves it, no verdict may carry a generation
// the healthy replicas have not converged on, and once the partition
// heals the prober must bring the laggard to the target. Every first
// response must be byte-identical to offline classification. What the
// cluster owes a retransmit across kills, partitions and membership
// changes is FuzzCluster's (internal/serve). The fixture, the fault
// steps and the checkers are chaoskit's (DESIGN.md "Chaos kit").
func RunChaosCluster(seed int64, dir string) (*ChaosClusterReport, error) {
	w, err := bootChaosWorld("chaos-cluster", seed)
	if err != nil {
		return nil, err
	}
	// Replica 2 takes the partition during the reload.
	const reloadVictim = 2
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
	reloadAt := nBatches / 2
	reloadHealAt := 3 * nBatches / 4

	// Phase A: healthy cluster under link faults.
	c.SendRange(0, reloadAt)

	// Phase B: generation-consistent reload. With replica 2 partitioned,
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
// dying node refuses without journaling, and three replicas —
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

// TestChaosCluster drives the generation-consistency scenario — a
// 3-replica consistent-hash cluster behind the health-aware router,
// >= 10% injected link faults, and a reload with a replica partitioned
// — and holds the cluster to it: zero lost batches, verdicts
// byte-identical to offline classification, none carrying a generation
// the fleet had not converged on, and convergence after the heal.
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
