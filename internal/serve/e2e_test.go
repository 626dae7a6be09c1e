package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/faults"
	"repro/internal/retry"
)

// TestEndToEndReplay is the acceptance loop in-process: replay a full
// synthetic month through the HTTP surface the way cmd/loadgen does,
// hot-reload the rule set mid-replay, and require (a) every streamed
// verdict byte-identical to offline classification, (b) verdicts served
// under both generations, and (c) every key /metrics counter non-zero.
func TestEndToEndReplay(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 4, QueueSize: 1024})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := &Client{BaseURL: ts.URL}

	var rules bytes.Buffer
	if err := ExportRules(&rules, f.clf); err != nil {
		t.Fatal(err)
	}

	const batch = 64
	nBatches := (len(f.replay) + batch - 1) / batch
	reloadBatch := nBatches / 2
	gens := map[uint64]int{}
	for b := 0; b < nBatches; b++ {
		if b == reloadBatch {
			gen, err := client.Reload(ctx, rules.Bytes())
			if err != nil {
				t.Fatalf("mid-replay reload: %v", err)
			}
			if gen != 2 {
				t.Fatalf("mid-replay reload generation = %d, want 2", gen)
			}
		}
		lo, hi := b*batch, (b+1)*batch
		if hi > len(f.replay) {
			hi = len(f.replay)
		}
		verdicts, err := client.Classify(ctx, f.replay[lo:hi])
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for i, v := range verdicts {
			gens[v.Generation]++
			if got, want := v.Key(), offlineKey(t, f, f.clf, &f.replay[lo+i]); got != want {
				t.Fatalf("event %d (generation %d): streamed %q, offline %q", lo+i, v.Generation, got, want)
			}
		}
	}
	if len(gens) != 2 || gens[1] == 0 || gens[2] == 0 {
		t.Fatalf("expected verdicts under generations 1 and 2, got %v", gens)
	}

	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{
		"longtail_requests_total{result=\"accepted\"}",
		"longtail_events_total",
		"longtail_reloads_total",
		"longtail_reload_generation",
		"longtail_stage_latency_seconds_count{stage=\"queue\"}",
		"longtail_stage_latency_seconds_count{stage=\"extract\"}",
		"longtail_stage_latency_seconds_count{stage=\"classify\"}",
		"longtail_stage_latency_seconds_count{stage=\"decode\"}",
		"longtail_stage_latency_seconds_count{stage=\"encode\"}",
	} {
		if !metricNonZero(metrics, counter) {
			t.Fatalf("metrics counter %q is zero or missing:\n%s", counter, metrics)
		}
	}
}

// metricNonZero reports whether the exposition line starting with
// prefix carries a non-zero value.
func metricNonZero(metrics, prefix string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			return len(fields) == 2 && fields[1] != "0"
		}
	}
	return false
}

// flakyTransport decorates an http.RoundTripper with deterministic
// seed-driven faults from internal/faults — the PR 1 machinery applied
// to the serving uplink. Each logical request is one fault key whose
// consecutive-failure streak the injector bounds, so recovery within
// the retry budget is guaranteed by construction.
type flakyTransport struct {
	inj      *faults.Injector
	next     http.RoundTripper
	injected atomic.Uint64

	mu      sync.Mutex
	reqID   int
	attempt int
}

func (ft *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	key := fmt.Sprintf("uplink-%d", ft.reqID)
	ft.attempt++
	fail := ft.attempt <= ft.inj.FailuresBefore(key)
	if !fail {
		ft.reqID++
		ft.attempt = 0
	}
	ft.mu.Unlock()
	if fail {
		ft.injected.Add(1)
		return nil, fmt.Errorf("injected uplink failure (%s)", key)
	}
	return ft.next.RoundTrip(req)
}

// TestClientRetriesFaultyUplink wires a faults.Injector into the
// client's transport and verifies the retry/backoff uplink absorbs the
// injected failures with verdicts unchanged.
func TestClientRetriesFaultyUplink(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 2, QueueSize: 256})
	srv, err := NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inj, err := faults.NewInjector(faults.Config{Seed: 11, ErrorRate: 0.3, MaxConsecutiveFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	ft := &flakyTransport{inj: inj, next: http.DefaultTransport}
	client := &Client{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: ft},
		Retry: retry.Policy{
			MaxAttempts: 5,
			Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
		},
	}
	ctx := context.Background()
	for b := 0; b < 8; b++ {
		verdicts, err := client.Classify(ctx, f.replay[b*16:(b+1)*16])
		if err != nil {
			t.Fatalf("batch %d under faults: %v", b, err)
		}
		for i, v := range verdicts {
			if got, want := v.Key(), offlineKey(t, f, f.clf, &f.replay[b*16+i]); got != want {
				t.Fatalf("event %d under faults: streamed %q, offline %q", b*16+i, got, want)
			}
		}
	}
	if ft.injected.Load() == 0 {
		t.Fatal("fault injector never fired; the test is vacuous")
	}
}
