// Package repro's root benchmark harness regenerates every table and
// figure of the paper (one benchmark per experiment) plus the ablation
// studies DESIGN.md calls out. Custom b.ReportMetric values surface the
// headline numbers (TP/FP rates, rule counts, coverage shares) next to
// the timing, so `go test -bench=. -benchmem` doubles as the
// reproduction run. The two in-process serve benchmarks at the end are
// the shadow-tax pair; performance is otherwise measured by `go run
// ./bench` and `make bench-layers` (DESIGN.md §11).
//
// The dataset scale is controlled by LONGTAIL_BENCH_SCALE (default
// 0.01); the pipeline is built once and shared across benchmarks.
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/lifecycle"
	"repro/internal/part"
	"repro/internal/serve"
	"repro/internal/synth"
)

var (
	pipelineOnce sync.Once
	pipeline     *experiments.Pipeline
	pipelineErr  error

	worldOnce sync.Once
	world     *experiments.ServingWorld
	worldErr  error
)

func benchScale() float64 {
	if v := os.Getenv("LONGTAIL_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.01
}

func sharedPipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	pipelineOnce.Do(func() {
		pipeline, pipelineErr = experiments.Run(synth.DefaultConfig(42, benchScale()))
	})
	if pipelineErr != nil {
		b.Fatal(pipelineErr)
	}
	return pipeline
}

// sharedWorld is the serving world over the shared pipeline — extractor,
// month-1 instances, the tau=0.001 rule set trained on them, month 2 as
// replay — built once for the ablation and serve benchmarks.
func sharedWorld(b *testing.B) *experiments.ServingWorld {
	b.Helper()
	p := sharedPipeline(b)
	worldOnce.Do(func() { world, worldErr = p.ServingWorld(0.001) })
	if worldErr != nil {
		b.Fatal(worldErr)
	}
	return world
}

// testInstances is month 2 as instances, the ablations' test window.
func testInstances(b *testing.B, w *experiments.ServingWorld) []features.Instance {
	b.Helper()
	test, err := w.Instances(1)
	if err != nil {
		b.Fatal(err)
	}
	return test
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p := sharedPipeline(b)
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFigure1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkTableII(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFigure2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkTableIII(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTableV(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkFigure3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkPackers(b *testing.B)   { benchExperiment(b, "packers") }
func BenchmarkTableVI(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkTableVII(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTableVIII(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkTableIX(b *testing.B)   { benchExperiment(b, "table9") }
func BenchmarkFigure4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkTableX(b *testing.B)    { benchExperiment(b, "table10") }
func BenchmarkTableXI(b *testing.B)   { benchExperiment(b, "table11") }
func BenchmarkTableXII(b *testing.B)  { benchExperiment(b, "table12") }
func BenchmarkFigure5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkTableXIII(b *testing.B) { benchExperiment(b, "table13") }
func BenchmarkTableXIV(b *testing.B)  { benchExperiment(b, "table14") }

// BenchmarkTableXVI runs the full monthly rule-learning sweep and
// reports the selected-rule count of the first window.
func BenchmarkTableXVI(b *testing.B) { benchExperiment(b, "table16") }

// BenchmarkTableXVII runs the classifier evaluation and reports
// aggregate TP/FP across windows as custom metrics.
func BenchmarkTableXVII(b *testing.B) {
	p := sharedPipeline(b)
	var tp, fp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows, err := classify.RunMonthlyWindows(p.Store, p.Result.Oracle, []float64{0.001}, classify.Reject)
		if err != nil {
			b.Fatal(err)
		}
		var tpN, tpD, fpN, fpD int
		for _, w := range windows {
			tpN += w.Eval.TruePositives
			tpD += w.Eval.MatchedMalicious
			fpN += w.Eval.FalsePositives
			fpD += w.Eval.MatchedBenign
		}
		if tpD > 0 {
			tp = float64(tpN) / float64(tpD)
		}
		if fpD > 0 {
			fp = float64(fpN) / float64(fpD)
		}
	}
	b.ReportMetric(100*tp, "TP%")
	b.ReportMetric(100*fp, "FP%")
}

// BenchmarkRuleStats reproduces the Section VII rule introspection.
func BenchmarkRuleStats(b *testing.B) { benchExperiment(b, "rulestats") }

// BenchmarkBaselines compares the rule classifier with the
// Polonium-style and URL-reputation baselines.
func BenchmarkBaselines(b *testing.B) { benchExperiment(b, "baselines") }

// BenchmarkEvasion runs the signer-rotation evasion study.
func BenchmarkEvasion(b *testing.B) { benchExperiment(b, "evasion") }

// BenchmarkChains computes malicious download-chain depths.
func BenchmarkChains(b *testing.B) { benchExperiment(b, "chains") }

// BenchmarkGenerate measures end-to-end dataset generation + labeling.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(synth.DefaultConfig(int64(i), 0.002)); err != nil {
			b.Fatal(err)
		}
	}
}

// trainFirstWindow trains one classifier on the first month with the
// given options and returns it with the second month's instances, for
// the ablation benches.
func trainFirstWindow(b *testing.B, w *experiments.ServingWorld, tau float64, policy classify.ConflictPolicy, maskSigner bool) (*classify.Classifier, []features.Instance) {
	b.Helper()
	train, test := w.Train, testInstances(b, w)
	if maskSigner {
		train = maskSignerFeature(train)
		test = maskSignerFeature(test)
	}
	clf, err := classify.Train(train, tau, policy)
	if err != nil {
		b.Fatal(err)
	}
	return clf, test
}

func maskSignerFeature(in []features.Instance) []features.Instance {
	out := make([]features.Instance, len(in))
	copy(out, in)
	for i := range out {
		out[i].FileSigner = features.None
		out[i].FileCA = features.None
	}
	return out
}

// BenchmarkAblationConflict compares the paper's conflict-rejection
// policy against majority voting.
func BenchmarkAblationConflict(b *testing.B) {
	w := sharedWorld(b)
	for _, tc := range []struct {
		name   string
		policy classify.ConflictPolicy
	}{
		{"reject", classify.Reject},
		{"majority", classify.MajorityVote},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var fp, tp float64
			for i := 0; i < b.N; i++ {
				clf, test := trainFirstWindow(b, w, 0.001, tc.policy, false)
				res := clf.Evaluate(test)
				tp = 100 * res.TPRate()
				fp = 100 * res.FPRate()
			}
			b.ReportMetric(tp, "TP%")
			b.ReportMetric(fp, "FP%")
		})
	}
}

// BenchmarkAblationTau sweeps the rule-selection error threshold.
func BenchmarkAblationTau(b *testing.B) {
	w := sharedWorld(b)
	for _, tau := range []float64{0.0, 0.001, 0.01, 0.05} {
		b.Run(strconv.FormatFloat(tau, 'f', -1, 64), func(b *testing.B) {
			var rules, fp float64
			for i := 0; i < b.N; i++ {
				clf, test := trainFirstWindow(b, w, tau, classify.Reject, false)
				res := clf.Evaluate(test)
				rules = float64(len(clf.Rules))
				fp = 100 * res.FPRate()
			}
			b.ReportMetric(rules, "rules")
			b.ReportMetric(fp, "FP%")
		})
	}
}

// BenchmarkAblationFeatures removes the dominant file-signer feature
// (plus its CA shadow) and measures the decay in unknown-file coverage.
func BenchmarkAblationFeatures(b *testing.B) {
	w := sharedWorld(b)
	unknowns, err := w.Extractor.UnknownInstances(w.Store.EventIndexesInMonth(w.Store.Months()[1]))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mask bool
	}{
		{"full", false},
		{"nosigner", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var matched float64
			for i := 0; i < b.N; i++ {
				clf, _ := trainFirstWindow(b, w, 0.001, classify.Reject, tc.mask)
				u := unknowns
				if tc.mask {
					u = maskSignerFeature(unknowns)
				}
				res := clf.ClassifyUnknowns(u, w.Store)
				matched = 100 * res.MatchRate()
			}
			b.ReportMetric(matched, "unknownMatched%")
		})
	}
}

// BenchmarkAblationTreeVsRules compares the paper's tau-filtered rule
// set (with conflict rejection) against a single pruned C4.5 decision
// tree trained on the same window — the "regular decision tree" the
// paper argues against. The tree must classify every matched test file;
// the rule set may abstain or reject, which is where its FP advantage
// comes from.
func BenchmarkAblationTreeVsRules(b *testing.B) {
	w := sharedWorld(b)
	train, test := w.Train, testInstances(b, w)
	b.Run("rules", func(b *testing.B) {
		var tp, fp float64
		for i := 0; i < b.N; i++ {
			clf, err := classify.Train(train, 0.001, classify.Reject)
			if err != nil {
				b.Fatal(err)
			}
			res := clf.Evaluate(test)
			tp, fp = 100*res.TPRate(), 100*res.FPRate()
		}
		b.ReportMetric(tp, "TP%")
		b.ReportMetric(fp, "FP%")
	})
	b.Run("tree", func(b *testing.B) {
		var tp, fp float64
		for i := 0; i < b.N; i++ {
			attrs, classes := classify.Schema()
			ds, err := part.NewDataset(attrs, classes)
			if err != nil {
				b.Fatal(err)
			}
			for j := range train {
				if err := ds.Add(toTreeInstance(&train[j])); err != nil {
					b.Fatal(err)
				}
			}
			tree, err := part.LearnTree(ds)
			if err != nil {
				b.Fatal(err)
			}
			var tpN, tpD, fpN, fpD int
			for j := range test {
				inst := toTreeInstance(&test[j])
				class, ok := tree.Classify(&inst)
				if !ok {
					continue
				}
				if test[j].Malicious {
					tpD++
					if class == classify.ClassMalicious {
						tpN++
					}
				} else {
					fpD++
					if class == classify.ClassMalicious {
						fpN++
					}
				}
			}
			if tpD > 0 {
				tp = 100 * float64(tpN) / float64(tpD)
			}
			if fpD > 0 {
				fp = 100 * float64(fpN) / float64(fpD)
			}
		}
		b.ReportMetric(tp, "TP%")
		b.ReportMetric(fp, "FP%")
	})
}

// toTreeInstance converts a feature instance for the tree baseline.
func toTreeInstance(in *features.Instance) part.Instance {
	vals := make([]part.Value, 0, len(features.AttributeNames))
	for i := 0; i < features.NumNominal; i++ {
		vals = append(vals, part.Value{S: in.Nominal(i)})
	}
	vals = append(vals, part.Value{F: float64(in.AlexaRank)})
	class := classify.ClassBenign
	if in.Malicious {
		class = classify.ClassMalicious
	}
	return part.Instance{Values: vals, Class: class, Ref: string(in.File)}
}

// BenchmarkAblationSigma regenerates a small trace under different
// collection-server prevalence caps and reports the share of files whose
// observed prevalence reaches the cap.
func BenchmarkAblationSigma(b *testing.B) {
	for _, sigma := range []int{5, 20, 1000} {
		b.Run(strconv.Itoa(sigma), func(b *testing.B) {
			var atCap float64
			for i := 0; i < b.N; i++ {
				cfg := synth.DefaultConfig(42, 0.002)
				cfg.Sigma = sigma
				res, err := synth.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res.Store.Freeze()
				files := res.Store.DownloadedFiles()
				n := 0
				for _, f := range files {
					if res.Store.Prevalence(f) >= sigma {
						n++
					}
				}
				atCap = 100 * float64(n) / float64(len(files))
			}
			b.ReportMetric(atCap, "filesAtCap%")
		})
	}
}

// BenchmarkAblationCoInstall regenerates the trace with bundle
// co-installs disabled and reports how the adware same-day transition
// share (Figure 5's headline dynamic) collapses without them.
func BenchmarkAblationCoInstall(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"with", false},
		{"without", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var sameDay float64
			for i := 0; i < b.N; i++ {
				cfg := synth.DefaultConfig(42, 0.005)
				cfg.Tuning.DisableCoInstall = tc.disable
				p, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				adw := p.Analyzer.Transitions(analysis.SourceAdware)
				if adw.DeltaDays.Len() > 0 {
					sameDay = 100 * adw.DeltaDays.At(1)
				}
			}
			b.ReportMetric(sameDay, "adwareSameDay%")
		})
	}
}

// BenchmarkPARTTraining isolates the PART learner on one month of
// instances.
func BenchmarkPARTTraining(b *testing.B) {
	train := sharedWorld(b).Train
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Train(train, 0.001, classify.Reject); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(train)), "instances")
}

// serveBenchStreams is the client concurrency both serve benchmarks
// drive: throughput is a capacity metric, and a daemon serves multiple
// uplinks (loadgen's worker pool is the reference client).
const serveBenchStreams = 4

// driveServeBench replays month-2 batches through serveBenchStreams
// concurrent clients against the given server URL, returning total
// verdicts received.
func driveServeBench(b *testing.B, url string, replay []dataset.DownloadEvent, batch int) int {
	ctx := context.Background()
	var sent atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < serveBenchStreams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client := &serve.Client{BaseURL: url, RequestIDPrefix: fmt.Sprintf("w%d", s)}
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				lo := (i * batch) % (len(replay) - batch + 1)
				verdicts, err := client.Classify(ctx, replay[lo:lo+batch])
				if err != nil {
					b.Error(err)
					return
				}
				sent.Add(int64(len(verdicts)))
			}
		}(s)
	}
	wg.Wait()
	return int(sent.Load())
}

// serveBench is the set-up and the measured section the two serve
// benchmarks share: an in-process stateless longtaild over the shared
// world (the sharded engine with tap installed behind the HTTP server)
// driven by loadgen-style clients replaying month-2 events in batches. The
// custom metric is sustained verdicts per second through the full wire
// path (line-JSON encode, HTTP, queue, extract, classify, line-JSON
// decode).
func serveBench(b *testing.B, tap serve.BatchTap) {
	w := sharedWorld(b)
	engine, err := serve.NewEngine(w.Extractor, w.Rules, serve.EngineConfig{
		Shards: runtime.GOMAXPROCS(0), QueueSize: 8192,
	}, &serve.Metrics{})
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Close()
	engine.SetBatchTap(tap)
	srv, err := serve.NewServer(engine, classify.Reject)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const batch = 256
	if len(w.Replay) < batch {
		b.Fatalf("only %d replay events; need %d", len(w.Replay), batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sent := driveServeBench(b, ts.URL, w.Replay, batch)
	b.StopTimer()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkServeThroughput measures the online serving subsystem end to
// end, stateless: no journal, no tap.
func BenchmarkServeThroughput(b *testing.B) { serveBench(b, nil) }

// BenchmarkServeThroughputShadow is BenchmarkServeThroughput with the
// lifecycle shadow evaluator tapped into the engine and a challenger
// shadowing every batch: each verdict batch is copied onto the
// evaluator's bounded queue and re-classified by the challenger off
// the hot path. The events/sec metric against the unshadowed benchmark
// is the shadowing tax; the acceptance bar is a regression <= 5%.
func BenchmarkServeThroughputShadow(b *testing.B) {
	w := sharedWorld(b)
	challenger, err := classify.Train(w.Train, 0.005, classify.Reject)
	if err != nil {
		b.Fatal(err)
	}
	truth := func(file dataset.FileHash) (bool, bool) {
		switch w.Store.Label(file) {
		case dataset.LabelMalicious:
			return true, true
		case dataset.LabelBenign:
			return false, true
		}
		return false, false
	}
	eval, err := lifecycle.NewEvaluator(w.Extractor, truth)
	if err != nil {
		b.Fatal(err)
	}
	defer eval.Close()
	eval.SetChallenger(challenger, "bench-challenger")
	serveBench(b, eval.Tap())
	eval.Flush()
	st := eval.Snapshot()
	b.ReportMetric(float64(st.Samples), "shadow-samples")
	b.ReportMetric(float64(st.Dropped), "shadow-dropped")
}

// BenchmarkPrevalenceIndex measures the store freeze/indexing cost.
func BenchmarkPrevalenceIndex(b *testing.B) {
	p := sharedPipeline(b)
	events := p.Store.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dataset.NewStore()
		for j := range events {
			if err := s.AddEvent(events[j]); err != nil {
				b.Fatal(err)
			}
		}
		s.Freeze()
	}
}
