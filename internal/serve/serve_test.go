package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/avsim"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/leaktest"
	"repro/internal/synth"
)

// The fixture is one small deterministic pipeline shared by every test:
// a labeled corpus, an extractor, a classifier trained on month 1, and
// the month-2 events the serving tests replay. It is built directly
// from synth+labeling (not experiments.Run) because internal/
// experiments imports this package for the chaos-serve harness.
type fixture struct {
	store  *dataset.Store
	ex     *features.Extractor
	clf    *classify.Classifier
	replay []dataset.DownloadEvent
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

// labeledStore generates and labels the deterministic corpus, the
// inlined equivalent of experiments.Run without the analyzer.
func labeledStore(cfg synth.Config) (*synth.Result, error) {
	res, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	lab, err := labeling.New(avsim.NewDefaultService(), res.Oracle, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := lab.LabelStore(res.Store, res.Samples); err != nil {
		return nil, err
	}
	res.Store.Freeze()
	return res, nil
}

func sharedFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		p, err := labeledStore(synth.DefaultConfig(7, 0.004))
		if err != nil {
			fixErr = err
			return
		}
		ex, err := features.NewExtractor(p.Store, p.Oracle)
		if err != nil {
			fixErr = err
			return
		}
		months := p.Store.Months()
		if len(months) < 2 {
			fixErr = fmt.Errorf("fixture: need >= 2 months, got %d", len(months))
			return
		}
		train, err := ex.Instances(p.Store.EventIndexesInMonth(months[0]))
		if err != nil {
			fixErr = err
			return
		}
		clf, err := classify.Train(train, 0.001, classify.Reject)
		if err != nil {
			fixErr = err
			return
		}
		events := p.Store.Events()
		var replay []dataset.DownloadEvent
		for _, idx := range p.Store.EventIndexesInMonth(months[1]) {
			replay = append(replay, events[idx])
		}
		fix = &fixture{store: p.Store, ex: ex, clf: clf, replay: replay}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// offlineKey computes the canonical offline verdict for one event, the
// reference every streamed verdict must match byte-for-byte.
func offlineKey(t testing.TB, f *fixture, clf *classify.Classifier, ev *dataset.DownloadEvent) string {
	t.Helper()
	vec, err := f.ex.Vector(ev)
	if err != nil {
		t.Fatal(err)
	}
	inst := features.Instance{Vector: vec, File: ev.File}
	v, matched := clf.ClassifyFile([]features.Instance{inst})
	return fmt.Sprintf("%s %s %v", ev.File, v, matched)
}

func newTestEngine(t testing.TB, f *fixture, cfg EngineConfig) *Engine {
	t.Helper()
	engine, err := NewEngine(f.ex, f.clf, cfg, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	return engine
}

// TestRulesRoundTrip covers the `longtail rulemine -json -o` ->
// `longtaild -rules` artifact loop: export the trained rule set to disk, load it back
// through the serving rule loader, and require identical verdicts on
// every replay event.
func TestRulesRoundTrip(t *testing.T) {
	f := sharedFixture(t)
	path := filepath.Join(t.TempDir(), "rules.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportRules(out, f.clf); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRulesFile(path, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(loaded.Rules), len(f.clf.Rules); got != want {
		t.Fatalf("round-trip rule count = %d, want %d", got, want)
	}
	for i := range f.replay {
		ev := &f.replay[i]
		if got, want := offlineKey(t, f, loaded, ev), offlineKey(t, f, f.clf, ev); got != want {
			t.Fatalf("event %d: round-tripped rules classify %q, original %q", i, got, want)
		}
	}
	// A second export of the loaded set must reproduce the artifact
	// byte-for-byte (analyst diffs depend on this).
	var again bytes.Buffer
	if err := ExportRules(&again, loaded); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), disk) {
		t.Fatal("re-exported rule set differs from the original artifact")
	}
}

// TestEngineMatchesOffline is the core determinism contract: streamed
// verdicts are byte-identical to offline classification.
func TestEngineMatchesOffline(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 3, QueueSize: 256})
	const batch = 50
	for lo := 0; lo < len(f.replay); lo += batch {
		hi := lo + batch
		if hi > len(f.replay) {
			hi = len(f.replay)
		}
		verdicts, err := engine.ClassifyBatch(context.Background(), f.replay[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			if v.Generation != 1 {
				t.Fatalf("verdict generation = %d, want 1", v.Generation)
			}
			if got, want := v.Key(), offlineKey(t, f, f.clf, &f.replay[lo+i]); got != want {
				t.Fatalf("event %d: streamed %q, offline %q", lo+i, got, want)
			}
		}
	}
	m := engine.Metrics()
	if got, want := m.EventsIn.Load(), uint64(len(f.replay)); got != want {
		t.Fatalf("EventsIn = %d, want %d", got, want)
	}
	if m.QueueWait.Count() == 0 || m.Extract.Count() == 0 {
		t.Fatal("latency histograms recorded nothing")
	}
}

// TestEngineBackpressure verifies all-or-nothing admission: a batch
// that cannot fit the bounded queue is rejected with ErrOverloaded and
// nothing is enqueued.
func TestEngineBackpressure(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 2, QueueSize: 8})
	if _, err := engine.ClassifyBatch(context.Background(), f.replay[:9]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch error = %v, want ErrOverloaded", err)
	}
	if engine.QueueDepth() != 0 {
		t.Fatalf("queue depth after rejected batch = %d, want 0", engine.QueueDepth())
	}
	// A batch that fits still serves.
	verdicts, err := engine.ClassifyBatch(context.Background(), f.replay[:8])
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 8 {
		t.Fatalf("got %d verdicts, want 8", len(verdicts))
	}
}

// TestEngineDrain: admission stops immediately at Close, but every
// admitted event still receives a verdict.
func TestEngineDrain(t *testing.T) {
	leaktest.Check(t) // Close returns once the workers have exited
	f := sharedFixture(t)
	engine, err := NewEngine(f.ex, f.clf, EngineConfig{Shards: 2, QueueSize: 256}, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]VerdictRecord, 4)
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = engine.ClassifyBatch(context.Background(), f.replay[g*20:(g+1)*20])
		}(g)
	}
	wg.Wait()
	leaktest.Within(t, 5*time.Second, "Engine.Close", engine.Close)
	for g := 0; g < 4; g++ {
		if errs[g] != nil {
			t.Fatalf("pre-drain batch %d: %v", g, errs[g])
		}
		for _, v := range results[g] {
			if v.Verdict == "" {
				t.Fatalf("batch %d: dropped response %+v", g, v)
			}
		}
	}
	if _, err := engine.ClassifyBatch(context.Background(), f.replay[:1]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain error = %v, want ErrDraining", err)
	}
}

// TestServerEndpoints exercises the HTTP surface end to end through the
// Client: classify, healthz, metrics, reload, and rejection paths.
func TestServerEndpoints(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 2, QueueSize: 256})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := &Client{BaseURL: ts.URL}

	verdicts, err := client.Classify(ctx, f.replay[:40])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if got, want := v.Key(), offlineKey(t, f, f.clf, &f.replay[i]); got != want {
			t.Fatalf("event %d: streamed %q, offline %q", i, got, want)
		}
	}

	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz status = %v", health["status"])
	}
	if health["generation"] != float64(1) {
		t.Fatalf("healthz generation = %v, want 1", health["generation"])
	}

	var rules bytes.Buffer
	if err := ExportRules(&rules, f.clf); err != nil {
		t.Fatal(err)
	}
	gen, err := client.Reload(ctx, rules.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("reload generation = %d, want 2", gen)
	}

	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"longtail_requests_total{result=\"accepted\"}",
		"longtail_events_total 40",
		"longtail_reloads_total 1",
		"longtail_reload_generation 2",
		"longtail_queue_depth 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}

	// Malformed bodies are 400s, counted, and never crash the engine.
	resp, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader("{\"type\":\"bogus\"}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus record status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rule set reload status = %d, want 400", resp.StatusCode)
	}
	if engine.Metrics().BadRequests.Load() != 2 {
		t.Fatalf("BadRequests = %d, want 2", engine.Metrics().BadRequests.Load())
	}
}

// TestServerBackpressure429 drives the queue to overflow through the
// raw HTTP path and checks the 429 + Retry-After contract.
func TestServerBackpressure429(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 1, QueueSize: 4})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Half the window is taken, as by a batch in flight: three events
	// fit the queue, but not now.
	engine.inflight.Add(2)
	defer engine.inflight.Add(-2)
	body, _ := wireEvents(t, f.replay[:3])
	resp, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if engine.Metrics().RequestsRejected.Load() != 1 {
		t.Fatalf("RequestsRejected = %d, want 1", engine.Metrics().RequestsRejected.Load())
	}
}

// TestOversizedBatchRefused: a batch with more events than the ingest
// queue holds can never be admitted — admission is all-or-nothing — so
// it is refused with 413 in the decode stage, stateless or journaled,
// in either wire format, before a byte of it reaches the journal. (It
// used to be journaled, answered 202 and retried by the deferred worker
// forever, and then failed every later boot's recovery.)
func TestOversizedBatchRefused(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 1, QueueSize: 4})
	ledger, _ := newTestLedger(t, t.TempDir())
	defer ledger.Close()
	for name, opts := range map[string][]ServerOption{"stateless": nil, "journaled": {WithLedger(ledger)}} {
		srv, err := NewServer(engine, classify.Reject, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		for _, binary := range []bool{false, true} {
			body, _ := wireEvents(t, f.replay[:5])
			contentType := "application/json"
			if binary {
				body, contentType = string(appendBinaryEvents(nil, f.replay[:5])), ContentTypeBinaryEvents
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/classify", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", contentType)
			req.Header.Set(RequestIDHeader, "too-big-1")
			bad := engine.Metrics().BadRequests.Load()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s, binary %v: status = %d, want 413", name, binary, resp.StatusCode)
			}
			if got := engine.Metrics().BadRequests.Load(); got != bad+1 {
				t.Fatalf("%s, binary %v: BadRequests went %d -> %d, want one more", name, binary, bad, got)
			}
		}
		ts.Close()
		srv.Close()
	}
	if pending, completed := ledger.Counts(); pending+completed != 0 || ledger.Stats().Appends != 0 {
		t.Fatalf("refused batch reached the ledger: %d pending, %d completed, %d journal appends", pending, completed, ledger.Stats().Appends)
	}
	if m := engine.Metrics(); m.RequestsDeferred.Load() != 0 || m.EventsIn.Load() != 0 {
		t.Fatalf("refused batch was deferred (%d) or classified (%d events)", m.RequestsDeferred.Load(), m.EventsIn.Load())
	}
}

// TestHistogram checks bucket routing and the exposition invariants.
func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	h.Observe(2 * time.Second) // lands in +Inf
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	var buf bytes.Buffer
	h.Write(&buf, "x", `stage="s"`)
	out := buf.String()
	if !strings.Contains(out, "x_bucket{stage=\"s\",le=\"+Inf\"} 3") {
		t.Fatalf("cumulative +Inf bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, "x_count{stage=\"s\"} 3") {
		t.Fatalf("count line wrong:\n%s", out)
	}
}
