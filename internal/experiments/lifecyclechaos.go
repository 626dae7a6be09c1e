package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/avsim"
	"repro/internal/chaoskit"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/lifecycle"
	"repro/internal/part"
	"repro/internal/serve"
)

// The promotion gate of the chaos-lifecycle scenario: the challenger's
// FP rate over known-benign shadow traffic may not exceed the paper's
// 0.1% operating point, decided on no fewer than 200 shadow samples.
const (
	chaosFPBudget         = 0.001
	chaosMinShadowSamples = 200
)

// ChaosLifecycleReport is the outcome of one lifecycle chaos run.
type ChaosLifecycleReport struct {
	Replicas int
	Batches  int
	Events   int

	// Ground-truth harvest (delayed t₀+2y re-scans over served files).
	Harvested      int
	DiscardedWeak  int
	ServedFiles    int
	KnownBenign    uint64
	KnownMalicious uint64

	// Bad-challenger phase: must be rejected, never served.
	BadFPRate        float64
	BadRejected      bool
	BadReason        string
	BadDisagreements int

	// Degraded fold-in: a garbage reload against replica 0 raises
	// longtail_degraded; the later promotion must clear it.
	DegradedAfterBadReload bool
	DegradedCleared        bool

	// Good-challenger phase: retrained on harvested truth, must promote.
	GoodFPRate         float64
	GoodPromoted       bool
	PromotedGeneration uint64
	RouterConverged    bool

	// Shadow accounting and the serving invariants.
	ShadowSamples    uint64
	ShadowDropped    uint64
	RuleMetricsSeen  bool
	DecayMetricsSeen bool

	// The serving invariants: WrongGenVerdicts, LostBatches and
	// MismatchedVerdicts must all be zero.
	chaoskit.Audit

	// Shadow is the scoreboard the gate archives as JSON.
	Shadow LifecycleShadowReport
}

// LifecycleShadowReport is the shadow-evaluation artifact: the full
// scoreboard and retained disagreement examples for both shadow runs.
type LifecycleShadowReport struct {
	Bad  LifecycleShadowRun `json:"badChallenger"`
	Good LifecycleShadowRun `json:"goodChallenger"`
}

// LifecycleShadowRun is one challenger's shadow run as the gate
// resolved it.
type LifecycleShadowRun struct {
	State         string                   `json:"state"`
	Reason        string                   `json:"reason,omitempty"`
	Generation    uint64                   `json:"generation,omitempty"`
	Stats         lifecycle.Stats          `json:"stats"`
	Disagreements []lifecycle.Disagreement `json:"disagreements"`
}

// overbroadChallenger builds the champion's malicious rules plus one
// crafted rule matching the most common (attribute, value) among
// known-benign replay traffic — guaranteed FP bleed over any reasonable
// budget, and deterministic for a given corpus.
func overbroadChallenger(ex *features.Extractor, champion *classify.Classifier, replay []dataset.DownloadEvent, truth lifecycle.TruthFunc) (*classify.Classifier, error) {
	type av struct {
		attr int
		val  string
	}
	counts := make(map[av]int)
	for i := range replay {
		mal, known := truth(replay[i].File)
		if !known || mal {
			continue
		}
		vec, err := ex.Vector(&replay[i])
		if err != nil {
			continue
		}
		for a := 0; a < features.NumNominal; a++ {
			if v := vec.Nominal(a); v != features.None {
				counts[av{a, v}]++
			}
		}
	}
	var best av
	bestN := 0
	for k, n := range counts {
		if n > bestN || (n == bestN && (k.attr < best.attr || (k.attr == best.attr && k.val < best.val))) {
			best, bestN = k, n
		}
	}
	if bestN == 0 {
		return nil, fmt.Errorf("experiments: chaos-lifecycle: no common benign nominal value to craft the bad challenger from")
	}
	var rules []part.Rule
	for _, r := range champion.Rules {
		if r.Class == classify.ClassMalicious {
			rules = append(rules, r)
		}
	}
	rules = append(rules, part.Rule{
		Conditions: []part.Condition{{
			AttrIndex: best.attr,
			AttrName:  features.AttributeNames[best.attr],
			Op:        part.OpEquals,
			Value:     best.val,
		}},
		Class: classify.ClassMalicious, ClassName: "malicious",
		Covered: bestN,
	})
	return classify.NewFromRules(rules, classify.Reject)
}

// RunChaosLifecycle drives the champion/challenger lifecycle against a
// live 3-replica cluster:
//
//  1. harvest ground truth for the replay window the paper's way —
//     schedule every served file's AV re-scan at t₀+2y (virtual clock)
//     and keep only confident labels;
//  2. shadow an over-broad challenger on live router traffic; the FP
//     gate must reject it, the cluster must keep serving generation 1,
//     and the challenger's verdicts must never surface;
//  3. break replica 0 with a garbage /admin/reload (longtail_degraded
//     raised, node demoted);
//  4. shadow a challenger retrained (warm-start) on the champion's
//     window plus the harvest; the gate must promote it through the
//     router's generation-consistent fan-out — converging every
//     replica to generation 2, clearing the degraded node — with zero
//     lost batches, zero wrong-generation verdicts, and zero dropped
//     shadow batches.
func RunChaosLifecycle(seed int64, dir string) (*ChaosLifecycleReport, error) {
	// The deterministic world: a labeled corpus, a champion trained on
	// month 0, and month 1 as the live traffic the lifecycle rides.
	w, err := bootChaosWorld("chaos-lifecycle", seed)
	if err != nil {
		return nil, err
	}
	champion, replay := w.Rules, w.Replay

	// ---- Harvest ground truth up front, the paper's protocol: every
	// file in the window gets its re-scan at download time + 2 years;
	// the virtual clock jumps past the last due date. A daemon would do
	// this continuously on wall clock; the harness owns the clock.
	harv, err := lifecycle.NewHarvester(avsim.NewDefaultService(), w.Extractor, w.Pipeline.Result.Samples, 0)
	if err != nil {
		return nil, err
	}
	harv.Observe(replay)
	var lastSeen time.Time
	for i := range replay {
		if replay[i].Time.After(lastSeen) {
			lastSeen = replay[i].Time
		}
	}
	harv.Advance(lastSeen.Add(labeling.DefaultRescanDelay).AddDate(0, 1, 0))
	truth := harv.Truth()
	hstats := harv.Stats()
	if hstats.Harvested == 0 {
		return nil, fmt.Errorf("experiments: chaos-lifecycle: harvest produced no labeled instances")
	}

	// ---- Boot the cluster: every replica journals, taps its engine
	// into a shadow evaluator, and exposes the evaluator on /metrics.
	evals := make([]*lifecycle.Evaluator, chaosReplicas)
	for i := range evals {
		if evals[i], err = lifecycle.NewEvaluator(w.Extractor, truth); err != nil {
			return nil, err
		}
		defer evals[i].Close()
	}
	c, err := bootChaosKit("chaos-lifecycle", w, chaoskit.Options{
		Dir: dir, Replicas: chaosReplicas, Router: true,
		Shards: chaosNodeShards, CompactBytes: chaosCompactBytes,
		ServerOptions: func(i int) []serve.ServerOption {
			return []serve.ServerOption{serve.WithMetricsAppender(evals[i].WriteMetrics)}
		},
		Batch: chaosBatch, MinBatches: 8, IDPrefix: "lc",
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for i, n := range c.Nodes {
		n.Engine.SetBatchTap(evals[i].Tap())
	}
	nBatches := c.Batches()
	rep := &ChaosLifecycleReport{Replicas: chaosReplicas, Batches: nBatches, Events: len(replay),
		Harvested: hstats.Harvested, DiscardedWeak: hstats.Discarded}
	ctx := context.Background()

	flushAll := func() {
		for _, e := range evals {
			e.Flush()
		}
	}
	// serveRange replays batches [lo, hi) through the router; chaoskit
	// holds every verdict to the serving contract — present, generation
	// c.WantGeneration, byte-identical to offline classification with
	// c.Expect (the champion before promotion, the challenger after).
	serveRange := func(lo, hi int) {
		for b := lo; b < hi; b++ {
			c.Send(b)
			if b%4 == 3 {
				flushAll() // keep the bounded shadow queues from overflowing
			}
		}
		flushAll()
	}
	// metrics concatenates the /metrics expositions of replicas [0, n).
	metrics := func(n int) string {
		var combined strings.Builder
		for i := 0; i < n; i++ {
			m, err := c.Direct(i).Metrics(ctx)
			if err != nil {
				c.Failf("replica %d metrics: %w", i, err)
			}
			combined.WriteString(m)
		}
		return combined.String()
	}
	c.WantGeneration = 1

	badEnd := nBatches / 2
	goodEnd := 3 * nBatches / 4

	// ---- Phase A: the over-broad challenger shadows live traffic. The
	// gate must reject it; generation 1 keeps serving throughout.
	mgr, err := lifecycle.NewManager(lifecycle.Config{
		FPBudget:         chaosFPBudget,
		MinShadowSamples: chaosMinShadowSamples,
	}, lifecycle.ReloadPromoter{Client: c.Client}, evals...)
	if err != nil {
		return nil, err
	}
	bad, err := overbroadChallenger(w.Extractor, champion, replay, truth)
	if err != nil {
		return nil, err
	}
	if _, err := mgr.BeginShadow(bad); err != nil {
		return nil, err
	}
	serveRange(0, badEnd)

	// Mid-shadow, /metrics on the replicas must expose per-rule hit/FP
	// counters for BOTH generations — the rule-efficacy surface.
	combined := metrics(chaosReplicas)
	rep.RuleMetricsSeen = strings.Contains(combined, `longtail_rule_hits_total{role="champion",gen="1"`) &&
		strings.Contains(combined, `longtail_rule_hits_total{role="challenger"`)

	badAgg := mgr.Aggregate()
	badDisagreements := mgr.Disagreements()
	rep.BadFPRate = badAgg.ChallengerFPRate()
	rep.BadDisagreements = len(badDisagreements)
	st, err := mgr.Tick(ctx)
	if err != nil {
		return nil, err
	}
	rep.BadRejected = st == lifecycle.StateRejected
	badStatus := mgr.Status()
	rep.BadReason, _ = badStatus["reason"].(string)
	if !rep.BadRejected {
		c.Failf("bad challenger resolved %s, want rejected (FP rate %.4f, stats %+v)", st, rep.BadFPRate, badAgg)
	}
	if gen := c.Router.Status().Generation; gen != 1 {
		c.Failf("cluster generation moved to %d during a rejected shadow run", gen)
	}

	// ---- Degraded fold-in: a garbage reload breaks replica 0. The
	// node serves its old generation in degraded mode until the
	// lifecycle promotion — riding the same reload path — heals it.
	if _, err := c.Direct(0).Reload(ctx, []byte("not rules")); err == nil {
		c.Failf("replica 0 accepted a garbage reload")
	}
	rep.DegradedAfterBadReload = strings.Contains(metrics(1), "longtail_degraded 1")
	if !rep.DegradedAfterBadReload {
		c.Failf("longtail_degraded not raised after failed reload")
	}
	c.Probe(1) // the router demotes the degraded replica out of the healthy tier

	// ---- Phase B: the real challenger — warm-started from the
	// champion's rules over its window plus the harvest — shadows the
	// next traffic slice and must promote within the FP budget.
	good, err := classify.Retrain(champion, harv.Training(w.Train), chaosTau, classify.Reject)
	if err != nil {
		return nil, err
	}
	if _, err := mgr.BeginShadow(good); err != nil {
		return nil, err
	}
	serveRange(badEnd, goodEnd)
	for _, n := range c.Nodes {
		harv.DrainLedger(n.Ledger)
	}
	rep.ServedFiles = harv.Stats().ServedFiles

	goodAgg := mgr.Aggregate()
	goodDisagreements := mgr.Disagreements()
	rep.GoodFPRate = goodAgg.ChallengerFPRate()
	rep.ShadowSamples = badAgg.Samples + goodAgg.Samples
	rep.KnownBenign = badAgg.KnownBenign + goodAgg.KnownBenign
	rep.KnownMalicious = badAgg.KnownMalicious + goodAgg.KnownMalicious
	st, err = mgr.Tick(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos-lifecycle: promotion tick: %w", err)
	}
	rep.GoodPromoted = st == lifecycle.StatePromoted
	rep.PromotedGeneration = mgr.PromotedGeneration()
	if !rep.GoodPromoted {
		c.Failf("good challenger resolved %s, want promoted (FP rate %.4f over %d known benign)", st, rep.GoodFPRate, goodAgg.KnownBenign)
	}

	// Promotion converged the fleet: advertised == target == 2, the
	// degraded replica healed (same reload path), probes restore it to
	// the healthy tier.
	c.Probe(2)
	rtStatus := c.Router.Status()
	rep.RouterConverged = rtStatus.Status == "ok" && rtStatus.Generation == rtStatus.TargetGeneration && rtStatus.Generation == rep.PromotedGeneration
	if !rep.RouterConverged {
		c.Failf("router did not converge after promotion (status %+v)", rtStatus)
	}
	rep.DegradedCleared = strings.Contains(metrics(1), "longtail_degraded 0")

	// ---- Phase C: the promoted generation serves the rest of the
	// window; every verdict must carry generation 2 and match the
	// challenger's offline classification.
	c.Expect, c.WantGeneration = good, rep.PromotedGeneration
	serveRange(goodEnd, nBatches)

	// Post-promotion, the champion counters accumulate under gen="2" —
	// the per-rule decay trend across generations on one surface.
	rep.DecayMetricsSeen = strings.Contains(metrics(chaosReplicas), fmt.Sprintf(`longtail_rule_hits_total{role="champion",gen="%d"`, rep.PromotedGeneration))

	for _, e := range evals {
		rep.ShadowDropped += e.Snapshot().Dropped
	}
	rep.Audit = c.Audit
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("experiments: chaos-lifecycle: %w", err)
	}

	rep.Shadow = LifecycleShadowReport{
		Bad: LifecycleShadowRun{
			State: lifecycle.StateRejected.String(), Reason: rep.BadReason,
			Stats: badAgg, Disagreements: badDisagreements,
		},
		Good: LifecycleShadowRun{
			State: lifecycle.StatePromoted.String(), Generation: rep.PromotedGeneration,
			Stats: goodAgg, Disagreements: goodDisagreements,
		},
	}
	return rep, nil
}
