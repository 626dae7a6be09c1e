package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/journal"
	"repro/internal/leaktest"
)

// TestShutdownInFlightClassify: requests racing a shutdown either
// complete with a full, correct verdict set or fail cleanly with
// draining — never a partial response. This is the SIGTERM path:
// longtaild stops the HTTP listener, then closes the server and
// engine while late requests are still in flight.
func TestShutdownInFlightClassify(t *testing.T) {
	f := sharedFixture(t)
	engine, err := NewEngine(f.ex, f.clf, EngineConfig{Shards: 2, QueueSize: 256}, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	const clients = 4
	var wg sync.WaitGroup
	var completed, drained atomic.Int64
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &Client{BaseURL: ts.URL}
			for b := 0; b < 50; b++ {
				verdicts, err := client.Classify(context.Background(), f.replay[:8])
				if err != nil {
					if strings.Contains(err.Error(), "draining") ||
						strings.Contains(err.Error(), "Service Unavailable") {
						drained.Add(1)
						return
					}
					errCh <- err
					return
				}
				if len(verdicts) != 8 {
					errCh <- &partialError{got: len(verdicts)}
					return
				}
				completed.Add(1)
			}
		}()
	}
	// Shut down once requests are flowing: a fixed sleep left a loaded
	// host with none completed, and the test vacuous.
	leaktest.Until(t, 10*time.Second, "a request completes", func() bool { return completed.Load() > 0 })
	srv.Close()
	engine.Close()
	wg.Wait()
	ts.Close()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if completed.Load() == 0 {
		t.Fatal("no request completed before shutdown; the race is vacuous")
	}
}

type partialError struct{ got int }

func (e *partialError) Error() string { return "partial verdict batch" }

// TestDrainWithNonEmptyJournal: batches journaled-and-deferred but not
// yet classified when the server closes survive on disk as pending and
// are replayed — byte-identically — by the next boot's recovery. This
// is the drain contract: Close never waits on or discards journaled
// work; the journal IS the handoff.
func TestDrainWithNonEmptyJournal(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	engine := newTestEngine(t, f, EngineConfig{})
	// Defer every identified batch, and stop the background worker
	// before any request arrives: these are the requests that land
	// mid-drain, after the worker stopped but before the listener did.
	srv, err := NewServer(engine, classify.Reject, WithLedger(l))
	if err != nil {
		t.Fatal(err)
	}
	srv.deferHighWater = 0
	srv.Close()

	events := f.replay[:6]
	body, err := marshalEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body))
	req.Header.Set(RequestIDHeader, "drain-1")
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("mid-drain classify = %d %s, want 202", rr.Code, rr.Body.String())
	}
	pending, _ := l.Counts()
	if pending != 1 {
		t.Fatalf("journal holds %d pending batches at drain, want 1", pending)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Next boot: recovery resolves the batch without the client.
	l2, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n, err := RecoverLedger(engine, l2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovery replayed %d batches, want 1", n)
	}
	verdicts, ok := l2.LookupVerdicts("drain-1")
	if !ok || len(verdicts) != len(events) {
		t.Fatalf("drained batch not recovered: %v %v", verdicts, ok)
	}
	for i := range events {
		if want := offlineKey(t, f, f.clf, &events[i]); verdicts[i].Key() != want {
			t.Fatalf("recovered verdict %d = %q, offline %q", i, verdicts[i].Key(), want)
		}
	}
}

// TestDoubleClose: Server, Ledger and the engine-facing Close paths
// are all idempotent; a supervisor that Closes twice (signal + defer)
// must not hang or panic.
func TestDoubleCloseServer(t *testing.T) {
	leaktest.Check(t) // the deferred worker, the engine's workers and whatever a ledger starts
	f := sharedFixture(t)
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	engine := newTestEngine(t, f, EngineConfig{})
	srv, err := NewServer(engine, classify.Reject, WithLedger(l))
	if err != nil {
		t.Fatal(err)
	}
	leaktest.Within(t, 5*time.Second, "Server.Close", srv.Close)
	srv.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second ledger Close = %v", err)
	}
	// A stateless server's Close is a no-op, twice.
	srv2, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	srv2.Close()
}

// TestDeadlineShedAtAdmission: a batch whose deadline already expired
// is shed wholesale at admission — no queue traffic, counted.
func TestDeadlineShedAtAdmission(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := engine.Metrics().ShedExpired.Load()
	if _, err := engine.ClassifyBatch(ctx, f.replay[:5]); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired-at-admission batch returned %v, want ErrDeadlineExceeded", err)
	}
	if got := engine.Metrics().ShedExpired.Load() - before; got != 5 {
		t.Fatalf("ShedExpired rose by %d, want 5", got)
	}
	if engine.QueueDepth() != 0 {
		t.Fatalf("shed batch left queue depth %d", engine.QueueDepth())
	}
}

// TestDeadlineShedInQueue: a worker that dequeues a frame after its
// request's deadline passed sheds every event in it without extraction
// work.
func TestDeadlineShedInQueue(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := engine.Metrics().ExtractErrors.Load()
	results, shed := runFrame(engine, newWorkerState(), ctx, f.replay[:2])
	if shed != 2 {
		t.Fatalf("shed %d of 2 expired events", shed)
	}
	for i := range results {
		if !strings.HasPrefix(results[i].Error, "shed:") {
			t.Fatalf("shed verdict %d error = %q", i, results[i].Error)
		}
		if results[i].Verdict != "" || results[i].Rules != nil {
			t.Fatalf("shed event %d was classified anyway: %+v", i, results[i])
		}
	}
	if engine.Metrics().ExtractErrors.Load() != before {
		t.Fatal("shed frame reached the extractor")
	}
}

// TestDeadlineShedOverHTTP: an expired client deadline surfaces as 503
// on a stateless server and journal-and-defer (202) on a ledger-backed
// one — the work is never silently dropped once accepted.
func TestDeadlineShedOverHTTP(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	body, err := marshalEvents(f.replay[:3])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired stateless classify = %d, want 503", rr.Code)
	}

	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	jsrv, err := NewServer(engine, classify.Reject, WithLedger(l))
	if err != nil {
		t.Fatal(err)
	}
	defer jsrv.Close()
	req = httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set(RequestIDHeader, "late-1")
	rr = httptest.NewRecorder()
	jsrv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("expired journaled classify = %d, want 202", rr.Code)
	}

	// A client that hangs up while its frames are queued: the request's
	// context is the frames', so the workers shed them.
	leaktest.Until(t, 5*time.Second, "the deferred batch above has left the queue", func() bool { _, done := l.Lookup("late-1"); return done })
	unlock := lockShards(engine) // every frame queues behind its shard's lock
	ctx, cancel = context.WithCancel(context.Background())
	req = httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set(RequestIDHeader, "hung-up-1")
	go jsrv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	leaktest.Until(t, 5*time.Second, "the batch is queued", func() bool { return engine.QueueDepth() == 3 })
	shed := engine.Metrics().ShedExpired.Load()
	cancel()
	unlock()
	leaktest.Until(t, 5*time.Second, "the queued frames are served or shed", func() bool { return engine.QueueDepth() == 0 })
	if got := engine.Metrics().ShedExpired.Load() - shed; got != 3 {
		t.Fatalf("%d of the 3 events a hung-up client left queued were shed; the frames do not carry the request's context", got)
	}
}

// TestDegradedModeOnFailedReload: a rule set that fails validation is
// refused, the old generation keeps serving, /healthz flips to
// degraded, and a subsequent good reload clears it.
func TestDegradedModeOnFailedReload(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := &Client{BaseURL: ts.URL}

	gen := engine.Generation()
	if _, err := client.Reload(ctx, []byte(`{"rules": [{"verdict": "nonsense"}]}`)); err == nil {
		t.Fatal("invalid rule set accepted")
	}
	if engine.Generation() != gen {
		t.Fatal("failed reload advanced the generation")
	}
	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" || health["degradedReason"] == "" {
		t.Fatalf("healthz after failed reload = %+v", health)
	}
	// The old generation still serves correct verdicts while degraded.
	verdicts, err := client.Classify(ctx, f.replay[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if want := offlineKey(t, f, f.clf, &f.replay[i]); v.Key() != want {
			t.Fatalf("degraded verdict %d = %q, want %q", i, v.Key(), want)
		}
	}
	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "longtail_degraded 1") ||
		!strings.Contains(metrics, "longtail_reload_failures_total 1") {
		t.Fatalf("metrics missing degraded markers:\n%s", metrics)
	}

	var rules bytes.Buffer
	if err := ExportRules(&rules, f.clf); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Reload(ctx, rules.Bytes()); err != nil {
		t.Fatal(err)
	}
	health, err = client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz after recovery reload = %+v", health)
	}
}

// TestRetransmitDedup: the same request ID posted twice classifies
// once; the second response comes from the ledger, byte-identical.
func TestRetransmitDedup(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv, err := NewServer(engine, classify.Reject, WithLedger(l))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := &Client{BaseURL: ts.URL}

	first, err := client.ClassifyWithID(ctx, "dup-1", f.replay[:6])
	if err != nil {
		t.Fatal(err)
	}
	eventsBefore := engine.Metrics().EventsIn.Load()
	second, err := client.ClassifyWithID(ctx, "dup-1", f.replay[:6])
	if err != nil {
		t.Fatal(err)
	}
	if engine.Metrics().EventsIn.Load() != eventsBefore {
		t.Fatal("retransmit re-classified instead of hitting the ledger")
	}
	if engine.Metrics().DedupHits.Load() == 0 {
		t.Fatal("dedup hit not counted")
	}
	if len(first) != len(second) {
		t.Fatalf("retransmit returned %d verdicts, original %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Key() != second[i].Key() {
			t.Fatalf("verdict %d differs across retransmit: %q vs %q", i, first[i].Key(), second[i].Key())
		}
	}
}
