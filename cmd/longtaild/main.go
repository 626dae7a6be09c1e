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
// With -journal-dir the daemon keeps a write-ahead journal of
// /classify batches: every answer is fsynced before it is sent (a
// direct reply's result record, a deferred batch's accept),
// retransmits (same X-Request-Id) are answered from the journal without
// reclassification, and on restart after a crash any deferred batches
// still without a result are replayed through the engine — kill -9
// mid-batch loses nothing and double-counts nothing.
// -result-retention bounds how many completed batches the journal keeps
// answering retransmits for (0: 65,536; negative: all of them).
//
// -lifecycle adds the champion/challenger lifecycle: POST
// /admin/lifecycle takes a challenger rule set, live traffic is
// shadow-evaluated against it, and it promotes itself once it passes
// the gates. On SIGINT or SIGTERM the daemon stops accepting, finishes
// what is in flight within -drain, and exits 0.
//
// With no -dataset the daemon generates the synthetic corpus in-process
// (same seed/scale as the rest of the harness) and labels only what it
// reads: with no -rules it trains on the first month, labeling that
// month's files and processes, so a bare `longtaild` is a fully working
// deployment; -lifecycle labels every file, the evaluator's ground
// truth; -rules alone labels nothing. A rules.json written by `longtail
// rulemine -json -o` loads directly via -rules. The boot log's one
// context: line gives the generate, label, compile and train times.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (DefaultServeMux only)
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/avsim"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/labeling"
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

// bootStats is what the boot log's context: line reports of how the
// serving context was built.
type bootStats struct {
	load, label, compile, train time.Duration
	labeled                     int
}

// loadStore builds the store and oracle the serving context is compiled
// from: read from a dataset file when given, otherwise generated and
// labeled as far as the daemon reads labels. Compiling the context reads
// none; training on the first month (no -rules) reads that month's
// files' and processes'; the lifecycle's ground truth (-lifecycle) reads
// any file's. Domain verdicts it never reads.
func loadStore(path string, seed int64, scale float64, train, everyFile bool, bs *bootStats) (*dataset.Store, *reputation.Oracle, error) {
	start := time.Now()
	if path == "" {
		res, err := synth.Generate(synth.DefaultConfig(seed, scale))
		if err != nil {
			return nil, nil, err
		}
		labelStart := time.Now()
		var events []dataset.DownloadEvent
		switch {
		case everyFile:
			events = res.Store.Events()
		case train:
			events = firstMonth(res.Store.Events())
		}
		if len(events) > 0 {
			lab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
			if err != nil {
				return nil, nil, err
			}
			if bs.labeled, err = lab.LabelFiles(res.Store, res.Samples, events); err != nil {
				return nil, nil, err
			}
		}
		bs.label = time.Since(labelStart)
		res.Store.Freeze()
		bs.load = time.Since(start) - bs.label
		return res.Store, res.Oracle, nil
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
	bs.load = time.Since(start)
	return store, oracle, nil
}

// firstMonth returns the events of the earliest calendar month, the one
// a rule set is trained on: a prefix of a generated store's events,
// which the collection server appends in time order.
func firstMonth(events []dataset.DownloadEvent) []dataset.DownloadEvent {
	for i := range events {
		if dataset.MonthOf(events[i].Time) != dataset.MonthOf(events[0].Time) {
			return events[:i]
		}
	}
	return events
}

// loadContext returns what the daemon serves with: the compiled feature
// context as a Serving view — no store behind it — and the rule set,
// from disk when rulesPath is given, otherwise trained on the first
// month. The store, the generated pipeline and the training instances
// it went through are garbage once it returns, unless wantTruth asks
// for the store's labels as the lifecycle evaluator's ground truth,
// which keeps the store (and nothing else) reachable.
func loadContext(datasetPath, rulesPath string, seed int64, scale, tau float64, wantTruth bool) (*features.Extractor, *classify.Classifier, lifecycle.TruthFunc, error) {
	var bs bootStats
	store, oracle, err := loadStore(datasetPath, seed, scale, rulesPath == "", wantTruth, &bs)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	w, err := experiments.NewServingWorld(store, oracle)
	if err != nil {
		return nil, nil, nil, err
	}
	bs.compile = time.Since(start)
	start = time.Now()
	if err := w.LoadOrTrainRules(rulesPath, tau); err != nil {
		return nil, nil, nil, err
	}
	bs.train = time.Since(start)
	source, rules := "generated", "trained"
	if datasetPath != "" {
		source = "read"
	}
	if rulesPath != "" {
		rules = "rules read"
	}
	st := w.Extractor.ContextStats()
	log.Printf("longtaild: context: %d files, %d domains, %d bytes; %s in %s, labeled %d files in %s, compiled in %s, %s in %s",
		st.Files, st.Domains, st.Bytes, source, ms(bs.load), bs.labeled, ms(bs.label), ms(bs.compile), rules, ms(bs.train))
	var truth lifecycle.TruthFunc
	if wantTruth {
		truth = storeTruth(store)
	}
	return w.Extractor.Serving(), w.Rules, truth, nil
}

func ms(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

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
	var eval *lifecycle.Evaluator
	if *lifecycleOn {
		eval, err = lifecycle.NewEvaluator(ex, truth)
		if err != nil {
			return err
		}
		defer eval.Close()
		engine.SetBatchTap(eval.Tap())
	}

	// Crash recovery: reopen the journal, replay any batches the previous
	// process deferred but never answered, and only then start listening —
	// a client retransmitting into the new process hits the recovered
	// ledger, never a second classification.
	var srvOpts []serve.ServerOption
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
		replayed, err := serve.RecoverLedger(engine, ledger)
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
		eval.Register(srv.Registry())
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
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	front := &serve.Front{Handler: handler}
	srv.ServedBy(front)
	errCh := make(chan error, 1)
	go func() {
		log.Printf("longtaild: serving on %s (%d rules, generation %d, %d shards, queue %d)",
			*addr, engine.RuleCount(), engine.Generation(), *shards, *queue)
		errCh <- front.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("longtaild: draining (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := front.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
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
