package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/leaktest"
	"repro/internal/retry"
	"repro/internal/serve"
)

// fakeReplica is a minimal stand-in for a longtaild: a dedup ledger
// keyed on X-Request-Id, a reloadable generation counter, and knobs to
// fail classification, reject reloads, hang, or go dark.
type fakeReplica struct {
	srv *httptest.Server

	mu           sync.Mutex
	gen          uint64
	healthy      bool
	down         bool
	failClassify int
	rejectReload bool
	// lifecycleState, when non-empty, answers /admin/lifecycle like a
	// replica running with -lifecycle; empty replies 404 like one without.
	lifecycleState string
	ledger         map[string]string
	classified     int
	hang           chan struct{}
	parkedTotal    atomic.Int64 // handlers that found the replica hung
	abandoned      atomic.Int64 // hung handlers that saw their request's context end
	// failImport rejects that many handoff import chunks with a 500,
	// simulating an importer that cannot journal.
	failImport int
	imported   int
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{gen: 1, healthy: true, ledger: make(map[string]string)}
	f.srv = httptest.NewServer(http.HandlerFunc(f.handle))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return f.srv.Listener.Addr().String() }

// restart closes the replica's listener and every connection into it,
// then serves the same state on the same address: what a restarted
// longtaild is to the connections the router kept.
func (f *fakeReplica) restart(t *testing.T) {
	t.Helper()
	addr := f.addr()
	f.srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(f.handle))
	srv.Listener.Close()
	srv.Listener = ln
	f.srv = srv
	srv.Start()
	t.Cleanup(srv.Close)
}

func (f *fakeReplica) handle(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	if f.down {
		f.mu.Unlock()
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	hang := f.hang
	f.mu.Unlock()
	switch r.URL.Path {
	case "/classify":
		// net/http watches for the client going away only once the body
		// has been read, as a real replica's decode stage does.
		io.Copy(io.Discard, r.Body)
		if f.parked(r, hang) {
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.failClassify > 0 {
			f.failClassify--
			http.Error(w, "induced failure", http.StatusInternalServerError)
			return
		}
		id := r.Header.Get(serve.RequestIDHeader)
		if resp, ok := f.ledger[id]; ok {
			fmt.Fprint(w, resp) // retransmit: answered from the ledger
			return
		}
		f.classified++
		resp := fmt.Sprintf("verdict:%s:%s", f.addr(), id)
		f.ledger[id] = resp
		fmt.Fprint(w, resp)
	case "/admin/reload":
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.rejectReload {
			http.Error(w, "induced reload refusal", http.StatusBadRequest)
			return
		}
		f.gen++
		json.NewEncoder(w).Encode(map[string]any{"generation": f.gen})
	case "/admin/lifecycle":
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.lifecycleState == "" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"state": f.lifecycleState})
	case "/admin/handoff/export":
		// Same wire shape as a longtaild: the full ledger as CRC frames
		// of kind 2 (result), payload "id\n" + body.
		f.mu.Lock()
		defer f.mu.Unlock()
		ids := make([]string, 0, len(f.ledger))
		for id := range f.ledger {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var out []byte
		for _, id := range ids {
			out = journal.AppendFrame(out, 2, append([]byte(id+"\n"), f.ledger[id]...))
		}
		w.Write(out)
	case "/admin/handoff/import":
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		recs, tail := journal.DecodeFrames(data)
		if tail != 0 {
			http.Error(w, "damaged chunk", http.StatusInternalServerError)
			return
		}
		if f.parked(r, hang) {
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.failImport > 0 {
			f.failImport--
			http.Error(w, "induced import failure", http.StatusInternalServerError)
			return
		}
		imported, dups := 0, 0
		for _, rec := range recs {
			idx := bytes.IndexByte(rec.Data, '\n')
			id, body := string(rec.Data[:idx]), string(rec.Data[idx+1:])
			if _, ok := f.ledger[id]; ok {
				dups++
				continue
			}
			f.ledger[id] = body
			imported++
		}
		f.imported += imported
		json.NewEncoder(w).Encode(map[string]any{"imported": imported, "duplicates": dups})
	case "/healthz":
		f.mu.Lock()
		defer f.mu.Unlock()
		status := "ok"
		if !f.healthy {
			status = "degraded"
		}
		json.NewEncoder(w).Encode(map[string]any{"status": status, "generation": f.gen})
	default:
		http.NotFound(w, r)
	}
}

// parked holds a hung replica's handler until the test closes hang or
// the request's context ends, which it counts and reports.
func (f *fakeReplica) parked(r *http.Request, hang chan struct{}) bool {
	if hang == nil {
		return false
	}
	f.parkedTotal.Add(1)
	select {
	case <-hang:
		return false
	case <-r.Context().Done():
		f.abandoned.Add(1)
		return true
	}
}

func (f *fakeReplica) set(fn func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeReplica) classifiedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.classified
}

// fastPolicy never sleeps, so failure paths resolve instantly.
var fastPolicy = retry.Policy{
	MaxAttempts: 2,
	Sleep:       func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
}

func newTestRouter(t *testing.T, replicas []*fakeReplica, mutate func(*Options)) *Router {
	t.Helper()
	leaktest.Check(t) // a router's goroutines end with its Close
	addrs := make([]string, len(replicas))
	for i, f := range replicas {
		addrs[i] = f.addr()
	}
	opts := Options{
		Replicas:     addrs,
		Retry:        fastPolicy,
		ProbeTimeout: 2 * time.Second,
		BreakerReset: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&opts)
	}
	rt, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaktest.Within(t, 5*time.Second, "Router.Close", rt.Close) })
	return rt
}

func TestRouterForwardStickyDedup(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	// The prober runs in this one; Close has to stop it and wait for it.
	rt := newTestRouter(t, replicas, func(o *Options) { o.ProbeInterval = time.Millisecond })

	ctx := context.Background()
	first, err := rt.Forward(ctx, "req-000001", []byte("batch"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A retransmit under the same ID must be answered from the ledger of
	// the replica that served it: byte-identical, no re-classification.
	again, err := rt.Forward(ctx, "req-000001", []byte("batch"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(again) {
		t.Fatalf("retransmit diverged: %q vs %q", first, again)
	}
	total := 0
	for _, f := range replicas {
		total += f.classifiedCount()
	}
	if total != 1 {
		t.Fatalf("cluster classified %d times, want 1 (dedup)", total)
	}
}

// TestForwardTakesNoRouterMutex: the data path reads the ring and the
// member table as published. A forward — first transmit and sticky
// retransmit — completes while the router-wide mutex is held, as it is
// for the length of a probe's bookkeeping, a reload fan-out or a
// membership change.
func TestForwardTakesNoRouterMutex(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	leaktest.Within(t, 5*time.Second, "Forward, which must not wait for rt.mu,", func() {
		for range 2 {
			if _, err := rt.Forward(context.Background(), "req-locked", []byte("batch"), 0); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestRouterFailoverOnError(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)

	// Find the owner of this key and make it fail once.
	id := "req-failover"
	owner := rt.ring.Load().Owner(id)
	for _, f := range replicas {
		if f.addr() == owner {
			f.set(func(f *fakeReplica) { f.failClassify = 5 })
		}
	}
	data, err := rt.Forward(context.Background(), id, []byte("batch"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), owner) {
		t.Fatalf("verdict %q came from the failing owner", data)
	}
	if got := rt.Metrics().Failover.Load(); got == 0 {
		t.Error("failover counter did not move")
	}

	// The sticky route now pins the ID to the successor that answered:
	// even with the owner healthy again, a retransmit hits the ledger.
	before := 0
	for _, f := range replicas {
		before += f.classifiedCount()
	}
	again, err := rt.Forward(context.Background(), id, []byte("batch"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("post-failover retransmit diverged: %q vs %q", again, data)
	}
	after := 0
	for _, f := range replicas {
		after += f.classifiedCount()
	}
	if after != before {
		t.Fatalf("retransmit re-classified (%d -> %d)", before, after)
	}
}

func TestRouterBreakerSkipsOpenNode(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerReset = time.Hour
	})
	id := "req-breaker"
	owner := rt.ring.Load().Owner(id)
	var bad *fakeReplica
	for _, f := range replicas {
		if f.addr() == owner {
			bad = f
		}
	}
	bad.set(func(f *fakeReplica) { f.failClassify = 1000 })

	// Each request ID has its own ring owner, so derive IDs the bad
	// replica actually owns — those forwards attempt it first.
	ownedID := func(tag string, k int) []string {
		ids := make([]string, 0, k)
		for i := 0; len(ids) < k; i++ {
			if cand := fmt.Sprintf("%s-%s-%d", id, tag, i); rt.ring.Load().Owner(cand) == owner {
				ids = append(ids, cand)
			}
		}
		return ids
	}

	// Enough traffic to trip the owner's breaker (2 consecutive failures).
	for _, tid := range ownedID("trip", 4) {
		if _, err := rt.Forward(context.Background(), tid, []byte("b"), 0); err != nil {
			t.Fatal(err)
		}
	}
	rt.mu.Lock()
	br := rt.table()[owner].breaker.State()
	rt.mu.Unlock()
	if br != retry.BreakerOpen {
		t.Fatalf("owner breaker = %v, want open", br)
	}
	// With the breaker open the owner is skipped without an attempt.
	bad.set(func(f *fakeReplica) { f.failClassify = 0 })
	pre := bad.classifiedCount()
	if _, err := rt.Forward(context.Background(), ownedID("post", 1)[0], []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	if bad.classifiedCount() != pre {
		t.Error("breaker-open node still received an attempt")
	}

	// A successful health probe closes the breaker out of band — the
	// node must not stay unroutable for the rest of the 1h reset window
	// once the prober has seen it answer.
	rt.ProbeAll(context.Background())
	rt.mu.Lock()
	br = rt.table()[owner].breaker.State()
	rt.mu.Unlock()
	if br != retry.BreakerClosed {
		t.Fatalf("owner breaker after successful probe = %v, want closed", br)
	}
	pre = bad.classifiedCount()
	if _, err := rt.Forward(context.Background(), ownedID("fresh", 1)[0], []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	if bad.classifiedCount() == pre {
		t.Error("recovered owner received no attempt after its breaker was probe-reset")
	}
}

// TestRouterNeverRacesAStalledOwner: a replica that is slow, not
// failed, keeps the request to itself. A second replica is asked only
// after the first attempt has failed — two replicas classifying and
// journaling one ID would be two authorities for it. What ends the wait
// is the caller's context, whatever deadline a header states, and the
// owner's handler sees the request go — each within seconds, so a hop
// that drops the context fails this test, not the package's timeout.
func TestRouterNeverRacesAStalledOwner(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	hang := make(chan struct{})
	defer close(hang)

	rt := newTestRouter(t, replicas, nil)
	id := "req-stalled"
	owner := rt.ring.Load().Owner(id)
	var stalled, other *fakeReplica
	for _, f := range replicas {
		if f.addr() == owner {
			f.set(func(f *fakeReplica) { f.hang = hang })
			stalled = f
		} else {
			other = f
		}
	}
	// The client states a minute in its header; its context has 50 ms.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/classify", strings.NewReader("batch")).WithContext(ctx)
	req.Header.Set(serve.RequestIDHeader, id)
	req.Header.Set(serve.TimeoutHeader, "60000")
	rr := httptest.NewRecorder()
	leaktest.Within(t, 5*time.Second, "the forward, which runs on its caller's context and so for 50 ms,", func() { rt.Handler().ServeHTTP(rr, req) })
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), context.DeadlineExceeded.Error()) {
		t.Fatalf("forward = %d %q, want 503 for the caller's deadline", rr.Code, rr.Body)
	}
	leaktest.Until(t, 5*time.Second, "the stalled owner's handler saw the request end", func() bool { return stalled.abandoned.Load() > 0 })
	if n := other.classifiedCount(); n != 0 {
		t.Fatalf("the successor classified %d batches while the owner was still working", n)
	}
	if got := rt.Metrics().Failover.Load(); got != 0 {
		t.Errorf("failover counter = %d for a stall, want 0", got)
	}
}

func TestRouterNoReplica(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	rt.mu.Lock()
	for _, n := range rt.table() {
		n.state.Store(int32(NodeEjected))
	}
	rt.rebuildRingLocked()
	rt.mu.Unlock()
	if _, err := rt.Forward(context.Background(), "req-x", []byte("b"), 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Forward = %v, want ErrNoReplica", err)
	}
}

func TestRouterGenerationConsistentReload(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)

	// Uniform reload advertises the new generation.
	gen, err := rt.Reload(context.Background(), []byte(`{"rules":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	if st := rt.Status(); st.Status != "ok" || st.Generation != 2 {
		t.Fatalf("status after uniform reload = %+v", st)
	}

	// One replica refuses: the reload must NOT advance the advertised
	// generation, the router reports degraded, and the laggard is out of
	// the healthy tier.
	lag := replicas[1]
	lag.set(func(f *fakeReplica) { f.rejectReload = true })
	if _, err := rt.Reload(context.Background(), []byte(`{"rules":[]}`)); err == nil {
		t.Fatal("partial reload reported success")
	}
	st := rt.Status()
	if st.Status != "degraded" {
		t.Fatalf("status after partial reload = %q, want degraded", st.Status)
	}
	if st.Generation == st.TargetGeneration {
		t.Fatalf("advertisement %d not rolled back from target %d", st.Generation, st.TargetGeneration)
	}
	rt.mu.Lock()
	lagState := rt.table()[lag.addr()].State()
	rt.mu.Unlock()
	if lagState != NodeDegraded {
		t.Fatalf("lagging node state = %v, want degraded", lagState)
	}

	// Recovery: the replica accepts reloads again; the probe round
	// reconciles it to the target generation and re-advertises.
	lag.set(func(f *fakeReplica) { f.rejectReload = false })
	rt.ProbeAll(context.Background())
	st = rt.Status()
	if st.Status != "ok" || st.Generation != st.TargetGeneration {
		t.Fatalf("status after reconciliation = %+v, want ok at target", st)
	}

	// A caller that has given up reloads nobody.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if gen, err := rt.Reload(dead, []byte(`{"rules":[]}`)); err == nil {
		t.Fatalf("reload on a cancelled context reached generation %d", gen)
	}
}

func TestRouterProbeEjectsAndReadmits(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, func(o *Options) { o.EjectAfter = 2 })

	dead := replicas[0]
	dead.set(func(f *fakeReplica) { f.down = true })
	rt.ProbeAll(context.Background())
	rt.ProbeAll(context.Background())
	rt.mu.Lock()
	state := rt.table()[dead.addr()].State()
	rt.mu.Unlock()
	if state != NodeEjected {
		t.Fatalf("dead node state = %v, want ejected", state)
	}
	if got := rt.ring.Load().Len(); got != 1 {
		t.Fatalf("ring has %d members after ejection, want 1", got)
	}

	// Recovery: one good probe re-admits on probation, the next promotes.
	dead.set(func(f *fakeReplica) { f.down = false })
	rt.ProbeAll(context.Background())
	rt.ProbeAll(context.Background())
	rt.mu.Lock()
	state = rt.table()[dead.addr()].State()
	rt.mu.Unlock()
	if state != NodeHealthy {
		t.Fatalf("recovered node state = %v, want healthy", state)
	}
	if got := rt.ring.Load().Len(); got != 2 {
		t.Fatalf("ring has %d members after re-admission, want 2", got)
	}
}

func TestRouterJoinLeaveDrain(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, []*fakeReplica{replicas[0]}, nil)

	if err := rt.Join(replicas[1].addr()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Join(replicas[1].addr()); err == nil {
		t.Fatal("double join accepted")
	}
	rt.ProbeAll(context.Background())
	if got := rt.ring.Load().Len(); got != 2 {
		t.Fatalf("ring has %d members after join, want 2", got)
	}

	// A leave with traffic in flight drains before forgetting the node.
	hang := make(chan struct{})
	replicas[0].set(func(f *fakeReplica) { f.hang = hang })
	id := ""
	for i := 0; ; i++ {
		id = fmt.Sprintf("req-drain-%d", i)
		if rt.ring.Load().Owner(id) == replicas[0].addr() {
			break
		}
	}
	fwdDone := make(chan error, 1)
	go func() {
		_, err := rt.Forward(context.Background(), id, []byte("b"), 0)
		fwdDone <- err
	}()
	leaktest.Until(t, 5*time.Second, "the forward is in flight on the hanging replica", func() bool {
		return rt.table()[replicas[0].addr()].inflight.Load() > 0
	})

	leaveDone := make(chan error, 1)
	go func() { leaveDone <- rt.Leave(context.Background(), replicas[0].addr()) }()
	select {
	case err := <-leaveDone:
		t.Fatalf("Leave returned %v before the in-flight forward drained", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(hang)
	if err := <-leaveDone; err != nil {
		t.Fatal(err)
	}
	if err := <-fwdDone; err != nil {
		t.Fatalf("in-flight forward failed during drain: %v", err)
	}
	if got := rt.ring.Load().Len(); got != 1 {
		t.Fatalf("ring has %d members after leave, want 1", got)
	}
	if err := rt.Leave(context.Background(), replicas[0].addr()); err == nil {
		t.Fatal("leave of a non-member accepted")
	}
}

func TestRouterHandlerWireProtocol(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	rt := newTestRouter(t, replicas, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// A serve.Client pointed at the router speaks the same protocol it
	// speaks to a single replica.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/classify", strings.NewReader("batch"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.RequestIDHeader, "req-wire-1")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /classify = %s", resp.Status)
	}
	if !strings.HasPrefix(string(body[:n]), "verdict:") {
		t.Fatalf("unexpected body %q", body[:n])
	}

	hresp, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if len(st.Nodes) != 2 || st.Status != "ok" {
		t.Fatalf("healthz = %+v", st)
	}

	mresp, err := front.Client().Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{"longtail_node_state{", "longtail_failover_total", "longtail_probe_total{", "longtail_breaker_state{"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestRouterLifecycleAggregation(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	replicas[0].set(func(f *fakeReplica) { f.lifecycleState = "shadowing" })
	replicas[1].set(func(f *fakeReplica) { f.lifecycleState = "idle" })
	// replicas[2] runs without -lifecycle: its slot must carry the error
	// rather than vanish from the aggregate.
	rt := newTestRouter(t, replicas, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := front.Client().Get(front.URL + "/admin/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /admin/lifecycle = %s", resp.Status)
	}
	var doc struct {
		Generation       uint64                    `json:"generation"`
		TargetGeneration uint64                    `json:"targetGeneration"`
		Status           string                    `json:"status"`
		Nodes            map[string]map[string]any `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 3 {
		t.Fatalf("aggregate covers %d nodes, want 3", len(doc.Nodes))
	}
	if got := doc.Nodes[replicas[0].addr()]["state"]; got != "shadowing" {
		t.Fatalf("node 0 state = %v, want shadowing", got)
	}
	if got := doc.Nodes[replicas[1].addr()]["state"]; got != "idle" {
		t.Fatalf("node 1 state = %v, want idle", got)
	}
	if _, ok := doc.Nodes[replicas[2].addr()]["error"]; !ok {
		t.Fatalf("node 2 (no lifecycle) = %v, want error entry", doc.Nodes[replicas[2].addr()])
	}
	if doc.Generation != 1 || doc.Status != "ok" {
		t.Fatalf("aggregate generation/status = %d/%s, want 1/ok", doc.Generation, doc.Status)
	}

	if presp, err := http.Post(front.URL+"/admin/lifecycle", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		presp.Body.Close()
		if presp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /admin/lifecycle = %s, want 405", presp.Status)
		}
	}
}

// TestRouterRestartMintsFreshIDs: the nodes' ledgers outlive a router,
// so the ID a restarted router mints for an ID-less batch must not be
// one its predecessor issued — or the new batch is answered with the old
// one's verdicts out of a ledger and never classified.
func TestRouterRestartMintsFreshIDs(t *testing.T) {
	replica := newFakeReplica(t)
	var minted []string
	for boot, body := range []string{"first boot's batch", "second boot's batch"} {
		rt := newTestRouter(t, []*fakeReplica{replica}, nil)
		front := httptest.NewServer(rt.Handler())
		resp, err := front.Client().Post(front.URL+"/classify", "", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		front.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("boot %d: POST /classify = %s: %s", boot+1, resp.Status, reply)
		}
		minted = append(minted, resp.Header.Get(serve.RequestIDHeader))
	}
	if minted[0] == "" || minted[0] == minted[1] {
		t.Fatalf("two router boots minted %q and %q for two different batches", minted[0], minted[1])
	}
	if got := replica.classifiedCount(); got != 2 {
		t.Fatalf("the replica classified %d of the 2 batches; the other was answered from the ledger entry of a reused ID", got)
	}
}

// TestStickyRetryBacksOffThroughPolicy: the in-place retries a pinned
// replica gets run on retry.Do — every wait goes through Policy.Sleep —
// and end at the attempt whose failure opens the breaker, not at
// MaxAttempts; the retransmit then fails over.
func TestStickyRetryBacksOffThroughPolicy(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t)}
	var sleeps atomic.Int32
	rt := newTestRouter(t, replicas, func(o *Options) {
		o.BreakerThreshold = 3
		o.BreakerReset = time.Hour
		o.Retry = retry.Policy{
			MaxAttempts: 10,
			Sleep: func(ctx context.Context, _ time.Duration) error {
				sleeps.Add(1)
				return ctx.Err()
			},
		}
	})
	const id, attemptsAllowed = "req-sticky", 1000
	if _, err := rt.Forward(context.Background(), id, []byte("batch"), 0); err != nil {
		t.Fatal(err)
	}
	pin, _ := rt.lookupRoute(id)
	var pinned *fakeReplica
	for _, f := range replicas {
		if f.addr() == pin.addr {
			pinned = f
		}
	}
	pinned.set(func(f *fakeReplica) { f.failClassify = attemptsAllowed })

	if _, err := rt.Forward(context.Background(), id, []byte("batch"), 0); err != nil {
		t.Fatalf("retransmit with the pin failing: %v", err)
	}
	var attempts int
	pinned.set(func(f *fakeReplica) { attempts = attemptsAllowed - f.failClassify })
	if attempts != 3 || sleeps.Load() != 2 {
		t.Fatalf("the pin got %d attempts around %d Policy.Sleep waits, want 3 around 2: retries end when the third failure opens the breaker", attempts, sleeps.Load())
	}
	rt.mu.Lock()
	br := rt.table()[pin.addr].breaker
	rt.mu.Unlock()
	if br.State() != retry.BreakerOpen || br.Trips() != 1 {
		t.Fatalf("pin's breaker is %v after %d trips, want open after 1", br.State(), br.Trips())
	}
	if got := rt.Metrics().Failover.Load(); got != 1 {
		t.Fatalf("Failover = %d, want 1", got)
	}
	if now, _ := rt.lookupRoute(id); now.addr == pin.addr {
		t.Fatal("the ID is still pinned to the replica that failed it")
	}
}
