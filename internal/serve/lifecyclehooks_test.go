package serve

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/obs"
)

// TestBatchTapObservesBatches covers the lifecycle's shadow-feed tap:
// every fully classified batch is observed exactly once, with the same
// verdicts the caller got, and removing the tap stops the feed.
func TestBatchTapObservesBatches(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 2, QueueSize: 256})

	var mu sync.Mutex
	var batches int
	var seen []VerdictRecord
	engine.SetBatchTap(func(events []dataset.DownloadEvent, verdicts []VerdictRecord) {
		mu.Lock()
		defer mu.Unlock()
		batches++
		if len(events) != len(verdicts) {
			t.Errorf("tap saw %d events but %d verdicts", len(events), len(verdicts))
		}
		seen = append(seen, verdicts...)
	})

	batch := f.replay[:40]
	verdicts, err := engine.ClassifyBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if batches != 1 {
		t.Fatalf("tap observed %d batches, want 1", batches)
	}
	if len(seen) != len(verdicts) {
		t.Fatalf("tap saw %d verdicts, want %d", len(seen), len(verdicts))
	}
	for i := range seen {
		if seen[i].Key() != verdicts[i].Key() {
			t.Fatalf("verdict %d: tap saw %q, caller got %q", i, seen[i].Key(), verdicts[i].Key())
		}
	}
	mu.Unlock()

	engine.SetBatchTap(nil)
	if _, err := engine.ClassifyBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if batches != 1 {
		t.Fatalf("tap fired after removal: %d batches", batches)
	}
}

// TestBatchTapSkipsShedBatches: a batch dead on arrival never reaches
// the tap — shed work is not observable ground truth.
func TestBatchTapSkipsShedBatches(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 2, QueueSize: 256})
	var mu sync.Mutex
	fired := false
	engine.SetBatchTap(func([]dataset.DownloadEvent, []VerdictRecord) {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.ClassifyBatch(ctx, f.replay[:10]); err == nil {
		t.Fatal("expired batch classified")
	}
	mu.Lock()
	defer mu.Unlock()
	if fired {
		t.Fatal("tap observed a shed batch")
	}
}

// TestRegistryExtendsMetrics: a series declared on the server's
// registry after NewServer (as the lifecycle evaluator's are) is on
// /metrics after the node's own.
func TestRegistryExtendsMetrics(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Registry().Family(func(s *obs.Scrape) { s.Uint("longtail_lifecycle_test", "", 42) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body, err := (&Client{BaseURL: ts.URL}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "longtail_events_total") {
		t.Fatalf("engine exposition block missing:\n%s", body)
	}
	if !strings.Contains(body, "longtail_lifecycle_test 42") {
		t.Fatalf("declared series missing:\n%s", body)
	}
	if strings.Index(body, "longtail_lifecycle_test") < strings.Index(body, "longtail_events_total") {
		t.Fatal("declared series precedes the engine block")
	}
}

// TestLedgerCompletedIDs: the harvester's drain point returns completed
// request IDs sorted, and each resolves through LookupVerdicts.
func TestLedgerCompletedIDs(t *testing.T) {
	f := sharedFixture(t)
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	engine := newTestEngine(t, f, EngineConfig{})
	want := []string{"req-a", "req-c", "req-b"}
	for i, id := range want {
		events := f.replay[i*5 : i*5+5]
		if err := acceptEvents(l, id, events); err != nil {
			t.Fatal(err)
		}
		verdicts, err := engine.ClassifyBatch(context.Background(), events)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Result(id, verdicts); err != nil {
			t.Fatal(err)
		}
	}
	// One accepted-but-unresolved batch must not appear.
	if err := acceptEvents(l, "req-pending", f.replay[20:25]); err != nil {
		t.Fatal(err)
	}

	got := l.CompletedIDs()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("CompletedIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CompletedIDs = %v, want %v", got, want)
		}
	}
	for _, id := range got {
		if _, ok := l.LookupVerdicts(id); !ok {
			t.Fatalf("completed id %s has no verdicts", id)
		}
	}
}
