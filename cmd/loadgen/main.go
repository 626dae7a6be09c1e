// Command loadgen replays a synthetic month of download telemetry
// against a running longtaild at a configurable rate and cross-checks
// every streamed verdict against offline classification, making the
// serving subsystem's determinism testable end-to-end: the daemon and
// the load generator derive the same deterministic corpus and rule set
// from (seed, scale, tau), so each streamed verdict must be
// byte-identical to classify.ClassifyFile run locally.
//
// Mid-replay it can hot-reload the daemon's rule set (-reload-at) to
// prove the swap drops no responses and changes no verdicts when the
// rule set is unchanged — only the reported generation moves.
//
// With -router the same replay is aimed at a longtailrouter front
// instead of a single daemon: the router speaks the identical wire
// protocol, so the byte-identical offline cross-check holds unchanged
// across consistent-hash routing, failover and retransmit dedup.
// Around the run loadgen reports the cluster's node states from
// /healthz and the deltas of the router's forwarding counters
// (requests, forwards, failovers, no-replica rejections), so a
// replay doubles as a cluster health report.
//
// Usage:
//
//	loadgen [-addr http://127.0.0.1:8787] [-seed N] [-scale F] [-tau F]
//	        [-month YYYY-MM] [-batch N] [-rate F] [-reload-at F]
//	        [-rules rules.json] [-noverify] [-router]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8787", "longtaild base URL")
	seed := flag.Int64("seed", 42, "generation seed (must match the daemon's)")
	scale := flag.Float64("scale", 0.02, "generation scale (must match the daemon's)")
	tau := flag.Float64("tau", 0.001, "rule-selection threshold (must match the daemon's)")
	monthFlag := flag.String("month", "", "month to replay (YYYY-MM; default: second month)")
	batch := flag.Int("batch", 64, "events per request")
	rate := flag.Float64("rate", 0, "events per second (0 = unthrottled)")
	reloadAt := flag.Float64("reload-at", 0.5, "hot-reload the rule set after this fraction of the replay (<0 disables)")
	rulesPath := flag.String("rules", "", "rule set JSON to verify against and reload (default: train locally)")
	noVerify := flag.Bool("noverify", false, "skip the offline cross-check")
	router := flag.Bool("router", false, "-addr is a longtailrouter front: report node states and failover counter deltas around the run")
	flag.Parse()
	ctx := context.Background()

	// Rebuild the daemon's deterministic world: same corpus, same rules.
	p, err := experiments.Run(synth.DefaultConfig(*seed, *scale))
	if err != nil {
		return err
	}
	w, err := experiments.NewServingWorld(p.Store, p.Result.Oracle)
	if err != nil {
		return err
	}
	if err := w.LoadOrTrainRules(*rulesPath, *tau); err != nil {
		return err
	}
	clf := w.Rules
	var rulesJSON bytes.Buffer
	if err := serve.ExportRules(&rulesJSON, clf); err != nil {
		return err
	}

	months := p.Store.Months()
	if len(months) == 0 {
		return fmt.Errorf("no data generated")
	}
	monthIdx := min(1, len(months)-1)
	if *monthFlag != "" {
		monthIdx = -1
		for i, m := range months {
			if m.String() == *monthFlag {
				monthIdx = i
			}
		}
		if monthIdx < 0 {
			return fmt.Errorf("month %q not in dataset (have %v)", *monthFlag, months)
		}
	}
	month, replay := months[monthIdx], w.Month(monthIdx)
	if len(replay) == 0 {
		return fmt.Errorf("month %s has no events", month)
	}

	var retries atomic.Uint64
	client := &serve.Client{
		BaseURL: *addr,
		// A stable request ID rides every batch, so a response lost on
		// the wire is retransmitted under the same ID and a journaling
		// daemon answers from its ledger instead of reclassifying.
		RequestIDPrefix: fmt.Sprintf("loadgen-%d", os.Getpid()),
	}
	client.Retry.OnRetry = func(int, error) { retries.Add(1) }

	var backoffs atomic.Uint64
	nBatches := (len(replay) + *batch - 1) / *batch
	reloadBatch := -1
	if *reloadAt >= 0 {
		reloadBatch = int(float64(nBatches) * *reloadAt)
	}
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(*batch) / *rate * float64(time.Second))
	}

	fmt.Printf("replaying %s: %d events in %d batches of %d against %s\n",
		month, len(replay), nBatches, *batch, *addr)
	var routerBefore map[string]float64
	if *router {
		if err := printRouterHealth(ctx, client, "before replay"); err != nil {
			return fmt.Errorf("router healthz: %w", err)
		}
		text, err := client.Metrics(ctx)
		if err != nil {
			return fmt.Errorf("router metrics: %w", err)
		}
		routerBefore = counterSamples(text)
	}
	verdictCounts := map[string]int{}
	gens := map[uint64]int{}
	mismatches := 0
	var reloadGen uint64
	start := time.Now()
	next := start
	for b := 0; b < nBatches; b++ {
		if b == reloadBatch {
			gen, err := client.Reload(ctx, rulesJSON.Bytes())
			if err != nil {
				return fmt.Errorf("mid-replay reload: %w", err)
			}
			reloadGen = gen
			fmt.Printf("  hot reload at batch %d/%d: now serving generation %d\n", b, nBatches, gen)
		}
		if interval > 0 {
			//lint:allow retrypolicy open-loop pacing to the next send slot, not a retry; retry.Do would distort the offered load
			time.Sleep(time.Until(next))
			next = next.Add(interval)
		}
		lo, hi := b**batch, (b+1)**batch
		if hi > len(replay) {
			hi = len(replay)
		}
		// The client already retries transient failures per attempt; this
		// outer loop backs off harder (jittered exponential, longer cap)
		// when the daemon sheds load persistently — 429s under a burst
		// are backpressure to honor, not errors to abort on.
		var verdicts []serve.VerdictRecord
		err := retry.Do(ctx, retry.Policy{
			MaxAttempts:    8,
			InitialBackoff: 100 * time.Millisecond,
			MaxBackoff:     5 * time.Second,
			OnRetry:        func(int, error) { backoffs.Add(1) },
		}, func(ctx context.Context) error {
			var cerr error
			verdicts, cerr = client.Classify(ctx, replay[lo:hi])
			return cerr
		})
		if err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		for i, v := range verdicts {
			verdictCounts[v.Verdict]++
			gens[v.Generation]++
			if *noVerify {
				continue
			}
			offline, err := w.Offline(clf, &replay[lo+i])
			if err != nil {
				return err
			}
			if got, want := v.Key(), offline.Key(); got != want {
				mismatches++
				if mismatches <= 5 {
					fmt.Printf("  MISMATCH: streamed %q, offline %q\n", got, want)
				}
			}
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("replayed %d events in %s (%.0f events/sec, %d uplink retries, %d overload backoffs, %d deferred batches)\n",
		len(replay), elapsed.Round(time.Millisecond),
		float64(len(replay))/elapsed.Seconds(), retries.Load(), backoffs.Load(), client.Deferred.Load())
	keys := make([]string, 0, len(verdictCounts))
	for k := range verdictCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  verdict %-10s %d\n", k, verdictCounts[k])
	}
	genKeys := make([]uint64, 0, len(gens))
	for g := range gens {
		genKeys = append(genKeys, g)
	}
	sort.Slice(genKeys, func(i, j int) bool { return genKeys[i] < genKeys[j] })
	for _, g := range genKeys {
		fmt.Printf("  generation %d served %d verdicts\n", g, gens[g])
	}
	if reloadGen > 0 {
		fmt.Printf("  mid-replay hot reload succeeded (generation %d)\n", reloadGen)
	}
	if !*noVerify {
		if mismatches > 0 {
			return fmt.Errorf("%d/%d streamed verdicts differ from offline classification", mismatches, len(replay))
		}
		fmt.Printf("  all %d streamed verdicts identical to offline classification\n", len(replay))
	}

	if *router {
		return reportRouter(ctx, client, routerBefore)
	}

	// Surface the daemon's own counters for the run.
	metrics, err := client.Metrics(ctx)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "longtail_") && !strings.Contains(line, "_bucket") &&
			!strings.Contains(line, "_sum") && !strings.Contains(line, "_count") {
			fmt.Printf("  %s\n", line)
		}
	}
	return nil
}

// printRouterHealth renders the router's /healthz view of the cluster:
// overall status and generation plus the state machine position and
// rule generation of every member replica.
func printRouterHealth(ctx context.Context, client *serve.Client, label string) error {
	h, err := client.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("router %s: status %v, generation %v", label, h["status"], h["generation"])
	if t, ok := h["targetGeneration"]; ok {
		fmt.Printf(" (target %v)", t)
	}
	fmt.Println()
	if reason, ok := h["degradedReason"].(string); ok && reason != "" {
		fmt.Printf("  degraded: %s\n", reason)
	}
	nodes, _ := h["nodes"].([]any)
	for _, n := range nodes {
		m, ok := n.(map[string]any)
		if !ok {
			continue
		}
		fmt.Printf("  node %-22v %-9v generation %v\n", m["addr"], m["state"], m["generation"])
	}
	return nil
}

// counterSamples parses the single-valued samples out of a /metrics
// exposition body, keyed by the full sample name including labels.
func counterSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "longtail_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// reportRouter prints the cluster state after the replay and the
// forwarding-counter deltas attributable to this run.
func reportRouter(ctx context.Context, client *serve.Client, before map[string]float64) error {
	if err := printRouterHealth(ctx, client, "after replay"); err != nil {
		return fmt.Errorf("router healthz: %w", err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("router metrics: %w", err)
	}
	after := counterSamples(text)
	fmt.Println("router counters for this run:")
	for _, name := range []string{
		"longtail_router_requests_total",
		"longtail_router_forwarded_total",
		"longtail_failover_total",
		"longtail_router_no_replica_total",
		"longtail_router_reloads_total",
		"longtail_router_reload_failures_total",
	} {
		fmt.Printf("  %-40s +%g\n", name, after[name]-before[name])
	}
	// Per-node served/failed deltas show how the ring spread the load.
	names := make([]string, 0, len(after))
	for name := range after {
		if strings.HasPrefix(name, "longtail_node_served_total") ||
			strings.HasPrefix(name, "longtail_node_failed_total") ||
			strings.HasPrefix(name, "longtail_breaker_trips_total") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if d := after[name] - before[name]; d != 0 {
			fmt.Printf("  %-40s +%g\n", name, d)
		}
	}
	return nil
}
