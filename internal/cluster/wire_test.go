package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/part"
	"repro/internal/serve"
	"repro/internal/synth"
)

// replyRecorder keeps every reply a client receives: body bytes and
// Content-Type, in order.
type replyRecorder struct {
	mu      sync.Mutex
	bodies  [][]byte
	ctypes  []string
	wrapped http.RoundTripper
}

func (rr *replyRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := rr.wrapped.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rr.mu.Lock()
	rr.bodies = append(rr.bodies, body)
	rr.ctypes = append(rr.ctypes, resp.Header.Get("Content-Type"))
	rr.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// matchAllWorld is a small corpus's extractor and events, and a rule set
// of one rule every event matches, so the expected verdict is known
// without an offline pass.
func matchAllWorld(t *testing.T) (*features.Extractor, *classify.Classifier, []dataset.DownloadEvent) {
	t.Helper()
	res, err := synth.Generate(synth.DefaultConfig(7, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	res.Store.Freeze()
	ex, err := features.NewExtractor(res.Store, res.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := classify.NewFromRules([]part.Rule{{
		Conditions: []part.Condition{{
			AttrIndex: features.NumNominal, AttrName: features.AttributeNames[features.NumNominal],
			Op: part.OpLE, Threshold: 1e12,
		}},
		Class: classify.ClassMalicious, ClassName: "malicious",
	}}, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	return ex, clf, res.Store.Events()
}

// realNode is a serve.Server without a ledger over matchAllWorld, where
// newTestRouter expects a replica, and the world's events.
func realNode(t *testing.T, cfg serve.EngineConfig) (*fakeReplica, []dataset.DownloadEvent) {
	t.Helper()
	ex, clf, events := matchAllWorld(t)
	engine, err := serve.NewEngine(ex, clf, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	srv, err := serve.NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	node := &fakeReplica{srv: httptest.NewServer(srv.Handler())}
	t.Cleanup(node.srv.Close)
	return node, events
}

// eventLines is events as a line-JSON /classify body.
func eventLines(t *testing.T, events []dataset.DownloadEvent) []byte {
	t.Helper()
	var body []byte
	for i := range events {
		line, err := export.AppendEventLine(body, &events[i])
		if err != nil {
			t.Fatal(err)
		}
		body = append(line, '\n')
	}
	return body
}

// TestRouterCarriesBinaryWire: a binary-format batch sent through the
// router's HTTP surface to real serve.Servers comes back as binary
// verdicts serve.Client decodes — on the first transmit, which is made
// to fail over, and on the sticky retransmit, which the pinned
// replica's ledger answers with the same bytes.
func TestRouterCarriesBinaryWire(t *testing.T) {
	ex, clf, events := matchAllWorld(t)
	events = events[:16]
	// failNext makes the next /classify to reach any replica a 500: the
	// ring owner's attempt fails and the batch lands on its successor.
	var failNext atomic.Int32
	var addrs []string
	var metrics []*serve.Metrics
	for i := 0; i < 2; i++ {
		engine, err := serve.NewEngine(ex, clf, serve.EngineConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(engine.Close)
		ledger, _, err := serve.OpenLedger(serve.LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ledger.Close() })
		srv, err := serve.NewServer(engine, classify.Reject, serve.WithLedger(ledger))
		if err != nil {
			t.Fatal(err)
		}
		node := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/classify" && failNext.Add(-1) >= 0 {
				http.Error(w, "induced failure", http.StatusInternalServerError)
				return
			}
			node.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		addrs = append(addrs, ts.Listener.Addr().String())
		metrics = append(metrics, engine.Metrics())
	}
	rt, err := NewRouter(Options{Replicas: addrs, Retry: fastPolicy, ProbeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	rec := &replyRecorder{wrapped: new(serve.Link)}
	client := &serve.Client{
		BaseURL: front.URL, Binary: true,
		HTTPClient: &http.Client{Transport: rec},
	}
	failNext.Store(1)
	for pass := 0; pass < 2; pass++ {
		verdicts, err := client.ClassifyWithID(context.Background(), "bin-000001", events)
		if err != nil {
			t.Fatalf("transmit %d of a binary batch through the router: %v", pass+1, err)
		}
		for i, v := range verdicts {
			if v.File != string(events[i].File) || v.Verdict != "malicious" {
				t.Fatalf("transmit %d verdict %d = %+v", pass+1, i, v)
			}
		}
	}
	if got := rt.Metrics().Failover.Load(); got != 1 {
		t.Fatalf("Failover = %d, want 1: the first transmit was meant to fail over", got)
	}
	if hits := metrics[0].DedupHits.Load() + metrics[1].DedupHits.Load(); hits != 1 {
		t.Fatalf("replica dedup hits = %d, want 1: the retransmit was meant to be a ledger replay on the pinned replica", hits)
	}
	if len(rec.bodies) != 2 {
		t.Fatalf("client saw %d replies, want 2", len(rec.bodies))
	}
	for i, ct := range rec.ctypes {
		if ct != serve.ContentTypeBinaryVerdicts {
			t.Fatalf("reply %d Content-Type = %q, want %q", i+1, ct, serve.ContentTypeBinaryVerdicts)
		}
	}
	if !bytes.Equal(rec.bodies[0], rec.bodies[1]) {
		t.Fatal("the retransmit's reply differs from the first reply")
	}
}

// TestTimeoutHeaderReadOneWay: a node and the router in front of it
// read X-Timeout-Ms by the same rule (serve.ParseTimeout), so a client
// hears the same status for the same header whichever it talks to — and
// both read it first: a request refused for its header has not cost a
// body read.
func TestTimeoutHeaderReadOneWay(t *testing.T) {
	node, events := realNode(t, serve.EngineConfig{})
	rt := newTestRouter(t, []*fakeReplica{node}, nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	body := eventLines(t, events[:1])
	status := func(base, header string) int {
		req, err := http.NewRequest(http.MethodPost, base+"/classify", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(serve.TimeoutHeader, header)
		}
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, row := range []struct {
		header string
		want   int
	}{
		{"", http.StatusOK},
		{"250", http.StatusOK},
		{"0", http.StatusBadRequest},
		{"-5", http.StatusBadRequest},
		{"abc", http.StatusBadRequest},
		{"9999999999999999999", http.StatusBadRequest},
	} {
		direct, routed := status(node.srv.URL, row.header), status(front.URL, row.header)
		if direct != row.want || routed != row.want {
			t.Errorf("%s: %q = %d from the node, %d through the router, want %d from both",
				serve.TimeoutHeader, row.header, direct, routed, row.want)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/classify", readFails{t})
	req.Header.Set(serve.TimeoutHeader, "abc")
	rr := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("an unreadable header over an unread body = %d from the router, want 400", rr.Code)
	}
}

// readFails is a request body nobody may read.
type readFails struct{ t *testing.T }

func (r readFails) Read([]byte) (int, error) {
	r.t.Error("the body was read before the deadline header was refused")
	return 0, io.EOF
}

// TestRouterRelaysTheReplicasRefusal: a node's 413 for a batch larger
// than its ingest queue ("split the batch") reaches the client as a
// 413, not rewritten to the 400 that says "fix the bytes".
func TestRouterRelaysTheReplicasRefusal(t *testing.T) {
	node, events := realNode(t, serve.EngineConfig{QueueSize: 4})
	rt := newTestRouter(t, []*fakeReplica{node}, nil)
	post := func(body []byte) int {
		rr := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)))
		return rr.Code
	}
	if code := post(eventLines(t, events[:64])); code != http.StatusRequestEntityTooLarge {
		t.Errorf("64 events into a 4-event queue = %d through the router, want the node's 413", code)
	}
	if code := post([]byte("not an event\n")); code != http.StatusBadRequest {
		t.Errorf("an unparseable body = %d through the router, want the node's 400", code)
	}
	if code := post(eventLines(t, events[:2])); code != http.StatusOK {
		t.Errorf("2 events = %d through the router, want 200", code)
	}
}
