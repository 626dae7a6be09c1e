// Command longtaild is the online verdict-serving daemon: it loads a
// labeled dataset as classification context (file/process metadata and
// Alexa ranks), loads or trains a tau-filtered rule set, and serves
// per-event verdicts over HTTP — the paper's Section VI-D operational
// mode as a long-running service.
//
// Endpoints: POST /classify (line-JSON events in, line-JSON verdicts
// out), GET /result (verdicts of a deferred batch), POST /admin/reload
// (hot-swap the rule set with zero downtime), GET /healthz,
// GET /metrics.
//
// Usage:
//
//	longtaild [-addr :8787] [-dataset dataset.jsonl] [-rules rules.json]
//	          [-journal-dir DIR] [-journal-shards N] [-result-retention N]
//	          [-seed N] [-scale F] [-tau F] [-shards N] [-queue N]
//	          [-lifecycle] [-drain 10s] [-pprof localhost:6060]
//
// With -journal-dir the daemon keeps a write-ahead journal of accepted
// /classify batches: every batch is fsynced before it is acknowledged,
// retransmits (same X-Request-Id) are answered from the journal without
// reclassification, and on restart after a crash any
// accepted-but-unanswered batches are replayed through the engine —
// kill -9 mid-batch loses nothing and double-counts nothing.
// -result-retention bounds how many completed batches the journal keeps
// answering retransmits for (0: 65,536; negative: all of them).
//
// -lifecycle adds the champion/challenger lifecycle: POST
// /admin/lifecycle takes a challenger rule set, live traffic is
// shadow-evaluated against it, and it promotes itself once it passes
// the gates. On SIGINT or SIGTERM the daemon stops accepting, finishes
// what is in flight within -drain, and exits 0.
//
// With no -dataset the daemon generates and labels the synthetic corpus
// in-process (same seed/scale as the rest of the harness); with no
// -rules it trains on the first month, so a bare `longtaild` is a fully
// working deployment. A rules.json written by `longtail rulemine -json
// -o` loads directly via -rules.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (DefaultServeMux only)
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/lifecycle"
	"repro/internal/reputation"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "longtaild:", err)
		os.Exit(1)
	}
}

// loadStore builds the store and oracle the serving context is compiled
// from: read from a dataset file when given, otherwise generated.
func loadStore(path string, seed int64, scale float64) (*dataset.Store, *reputation.Oracle, error) {
	if path == "" {
		p, err := experiments.Run(synth.DefaultConfig(seed, scale))
		if err != nil {
			return nil, nil, err
		}
		return p.Store, p.Result.Oracle, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	store, oracle, err := export.ReadStoreWithOracle(f)
	if err != nil {
		return nil, nil, err
	}
	store.Freeze()
	return store, oracle, nil
}

// loadContext returns what the daemon serves with: the compiled feature
// context as a Serving view — no store behind it — and the rule set,
// from disk when rulesPath is given, otherwise trained on the first
// month. The store, the generated pipeline and the training instances
// it went through are garbage once it returns, unless wantTruth asks
// for the store's labels as the lifecycle evaluator's ground truth,
// which keeps the store (and nothing else) reachable.
func loadContext(datasetPath, rulesPath string, seed int64, scale, tau float64, wantTruth bool) (*features.Extractor, *classify.Classifier, lifecycle.TruthFunc, error) {
	store, oracle, err := loadStore(datasetPath, seed, scale)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	w, err := experiments.NewServingWorld(store, oracle)
	if err != nil {
		return nil, nil, nil, err
	}
	st := w.Extractor.ContextStats()
	log.Printf("longtaild: context: %d files, %d domains, %d bytes, compiled in %s",
		st.Files, st.Domains, st.Bytes, time.Since(start).Round(time.Millisecond))
	if err := w.LoadOrTrainRules(rulesPath, tau); err != nil {
		return nil, nil, nil, err
	}
	var truth lifecycle.TruthFunc
	if wantTruth {
		truth = storeTruth(store)
	}
	return w.Extractor.Serving(), w.Rules, truth, nil
}

func run() error {
	addr := flag.String("addr", ":8787", "listen address")
	datasetPath := flag.String("dataset", "", "labeled dataset (longtail gendata line-JSON; default: generate in-process)")
	rulesPath := flag.String("rules", "", "rule set JSON (longtail rulemine -json -o; default: train on first month)")
	seed := flag.Int64("seed", 42, "generation seed when no -dataset")
	scale := flag.Float64("scale", 0.02, "generation scale when no -dataset")
	tau := flag.Float64("tau", 0.001, "rule-selection error threshold when no -rules")
	shards := flag.Int("shards", 4, "worker shards")
	queue := flag.Int("queue", 1024, "bounded ingest queue size (events)")
	journalDir := flag.String("journal-dir", "", "write-ahead journal directory (empty: serve stateless)")
	journalShards := flag.Int("journal-shards", 1, "journal WAL shards; >1 stripes accepts over per-shard group commits (shards already on disk can only raise the count)")
	lifecycleOn := flag.Bool("lifecycle", false, "enable champion/challenger lifecycle (/admin/lifecycle, shadow evaluation, gated self-promotion)")
	retention := flag.Int("result-retention", 0, "completed batches kept for retransmit dedup (0: default 65536, negative: unbounded)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty: off)")
	flag.Parse()

	// Profiling stays off the serving listener: the debug endpoints are
	// unauthenticated and hold goroutines for seconds, so they get their
	// own (typically loopback-only) listener, opted in per run.
	if *pprofAddr != "" {
		// Daemon-lifetime by design: the listener serves debug endpoints
		// until the process exits and needs no shutdown handshake.
		go func() {
			// net/http/pprof registers on http.DefaultServeMux.
			log.Printf("longtaild: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("longtaild: pprof listener: %v", err)
			}
		}()
	}

	ex, clf, truth, err := loadContext(*datasetPath, *rulesPath, *seed, *scale, *tau, *lifecycleOn)
	if err != nil {
		return err
	}
	engine, err := serve.NewEngine(ex, clf, serve.EngineConfig{Shards: *shards, QueueSize: *queue}, &serve.Metrics{})
	if err != nil {
		return err
	}

	// Lifecycle sidecar: shadow evaluation taps every successfully served
	// batch off the hot path; the evaluator's scoreboard joins /metrics
	// and the manager gates self-promotion through the node's own
	// zero-downtime reload endpoint.
	var srvOpts []serve.ServerOption
	var eval *lifecycle.Evaluator
	if *lifecycleOn {
		eval, err = lifecycle.NewEvaluator(ex, truth)
		if err != nil {
			return err
		}
		defer eval.Close()
		engine.SetBatchTap(eval.Tap())
		srvOpts = append(srvOpts, serve.WithMetricsAppender(eval.WriteMetrics))
	}

	// Crash recovery: reopen the journal, replay any batches the previous
	// process accepted but never answered, and only then start listening —
	// a client retransmitting into the new process hits the recovered
	// ledger, never a second classification.
	var ledger *serve.Ledger
	if *journalDir != "" {
		var rec *serve.LedgerRecovery
		ledger, rec, err = serve.OpenLedger(serve.LedgerOptions{
			Journal:    journal.Options{Dir: *journalDir},
			Shards:     *journalShards,
			MaxResults: *retention,
		})
		if err != nil {
			return err
		}
		defer ledger.Close()
		if rec.TornTail > 0 {
			log.Printf("longtaild: journal recovery discarded %d bytes of torn tail (unacknowledged writes from a crash, and a recycled segment's old contents behind its last record)", rec.TornTail)
		}
		replayed, err := serve.RecoverLedger(engine, ledger, rec)
		if err != nil {
			return err
		}
		log.Printf("longtaild: journal recovered: %d completed batches, %d pending replayed", rec.Results, replayed)
		srvOpts = append(srvOpts, serve.WithLedger(ledger))
	}
	srv, err := serve.NewServer(engine, classify.Reject, srvOpts...)
	if err != nil {
		return err
	}
	// What generating, labeling and training left behind goes back to the
	// operating system now, not cycle by cycle under the first requests:
	// from here on the heap is the compiled context plus what is in
	// flight, and the longtail_heap_* gauges read a settled number.
	debug.FreeOSMemory()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := srv.Handler()
	if *lifecycleOn {
		mgr, err := lifecycle.NewManager(lifecycle.Config{}, lifecycle.ReloadPromoter{
			Client: &serve.Client{BaseURL: loopbackURL(*addr)},
		}, eval)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/admin/lifecycle", lifecycleHandler(ctx, mgr, classify.Reject))
		mux.Handle("/", handler)
		handler = mux
		log.Printf("longtaild: lifecycle enabled")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("longtaild: serving on %s (%d rules, generation %d, %d shards, queue %d)",
			*addr, engine.RuleCount(), engine.Generation(), *shards, *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("longtaild: draining (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Order matters: stop the deferred-batch worker, then drain the
	// engine, then (deferred above) close the journal. Batches still
	// pending in the journal at exit are intact on disk; the next boot's
	// recovery replays them.
	srv.Close()
	engine.Close()
	if ledger != nil {
		if pending, _ := ledger.Counts(); pending > 0 {
			log.Printf("longtaild: exiting with %d journaled batches pending; next boot will replay them", pending)
		}
	}
	log.Printf("longtaild: drained, bye")
	return nil
}
