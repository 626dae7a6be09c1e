package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testScale is a corpus a tenth the benchmark's size: still more
// (file, process) pairs than the hot set, built in well under a second.
const testScale = 0.002

var (
	worldOnce sync.Once
	testWorld *world
	worldErr  error
)

func smallWorld(t *testing.T) *world {
	t.Helper()
	worldOnce.Do(func() { testWorld, worldErr = buildWorld(testScale) })
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return testWorld
}

func mustSpec(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.90}, {40, 0.75}, {20, 0.50}, {3, 0.50}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); got != 10.5/4 {
		t.Errorf("spread = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		bound  float64
		want   string
	}{
		{100, 109, "lower", 0.10, "same"},
		{100, 111, "lower", 0.10, "worse"},
		{100, 89, "lower", 0.10, "better"},
		{100, 89, "higher", 0.10, "worse"},
		{100, 111, "higher", 0.10, "better"},
		{100, 95, "higher", 0.10, "same"},
	} {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}

func TestParseMetricsDeltas(t *testing.T) {
	before := parseMetrics(`# HELP ignored
longtail_requests_total{result="accepted"} 10
longtail_requests_total{result="dedup"} 1
longtail_stage_latency_seconds_bucket{stage="queue",le="+Inf"} 4
longtail_stage_latency_seconds_sum{stage="queue"} 0.002
longtail_stage_latency_seconds_count{stage="queue"} 4
longtail_journal_sync_batch_sum 30
longtail_journal_sync_batch_count 10
garbage line without a number
`)
	after := parseMetrics(`longtail_requests_total{result="accepted"} 25
longtail_requests_total{result="dedup"} 4
longtail_stage_latency_seconds_sum{stage="queue"} 0.008
longtail_stage_latency_seconds_count{stage="queue"} 7
longtail_journal_sync_batch_sum 90
longtail_journal_sync_batch_count 20
`)
	if got := delta(before, after, `longtail_requests_total{result="accepted"}`); got != 15 {
		t.Errorf("accepted delta = %v", got)
	}
	if got := delta(before, after, `longtail_requests_total{result="dedup"}`); got != 3 {
		t.Errorf("dedup delta = %v", got)
	}
	if got := histMean(before, after, "longtail_stage_latency_seconds", `{stage="queue"}`); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("queue mean = %v", got)
	}
	if got := histMean(before, after, "longtail_journal_sync_batch", ""); got != 6 {
		t.Errorf("sync batch mean = %v", got)
	}
	if got := histMean(before, before, "longtail_journal_sync_batch", ""); got != 0 {
		t.Errorf("mean over no observations = %v", got)
	}
	sum := sumSamples([]samples{before, after})
	if got := sum[`longtail_requests_total{result="accepted"}`]; got != 35 {
		t.Errorf("summed accepted = %v", got)
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift fields.
	stat := "4242 (long taild) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 100 1000000 300 18446744073709551615"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("cpu = %v, %v; want 2s", cpu, err)
	}
	if _, err := parseProcStat("no paren"); err == nil {
		t.Error("accepted a stat line without a command")
	}
	status := "Name:\tlongtaild\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 123456 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("found a field that is not there")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("own /proc stat: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ledger.accept", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "engine.classify", Start: 20, End: 50}, // overlaps 2: union 10..50
		{ID: 4, Parent: 1, Name: "ledger.result", Start: 90, End: 120},  // clipped to 90..100
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Parent: 0, Name: "features.vector", Start: 130, End: 150}, // no parent: all self
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	totals := layerTotals(spans)
	if got := totals["request"]; got.count != 1 || got.total != 100 || got.self != 50 {
		t.Errorf("request totals = %+v", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	rec := newRecorder(false)
	id := rec.start("request", 1, 0)
	rec.end(id)
	if id != 0 || len(rec.all()) != 0 {
		t.Errorf("recorder that is off kept id %d, %d spans", id, len(rec.all()))
	}
	rec = newRecorder(true)
	a := rec.start("request", 7, 0)
	b := rec.start("engine.classify", 7, a)
	rec.end(b)
	rec.end(a)
	if got := rec.all(); len(got) != 2 || got[1].Parent != a || got[1].Req != 7 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

func streamBodies(t *testing.T, w *world, sp spec, seed int64, n int) [][]byte {
	t.Helper()
	g, err := newGenerator(w, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		r, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		r.encode(sp)
		out = append(out, append([]byte(r.id+"|"), r.body...))
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	w := smallWorld(t)
	for _, sp := range specs {
		a := streamBodies(t, w, sp, 7, 20)
		b := streamBodies(t, w, sp, 7, 20)
		c := streamBodies(t, w, sp, 8, 20)
		same := 0
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two streams of one seed", sp.name, i)
			}
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", sp.name)
		}
	}
}

func TestFreshKeysNeverRepeat(t *testing.T) {
	w := smallWorld(t)
	sp := mustSpec(t, "longtail_durable")
	g, err := newGenerator(w, sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Enough events for several passes over the pairs, so the domain
	// rotation is what keeps the keys apart.
	requests := 3*len(g.pairs)/sp.batch + 1
	seen := map[key]bool{}
	ids := map[string]bool{}
	for i := 0; i < requests; i++ {
		r, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		if ids[r.id] || r.id == "" {
			t.Fatalf("request ID %q repeats or is empty", r.id)
		}
		ids[r.id] = true
		for j := range r.events {
			k := eventKey(&r.events[j])
			if seen[k] {
				t.Fatalf("request %d: key %v was handed out before", i, k)
			}
			seen[k] = true
		}
	}
	if g.fresh/(len(g.pairs)-hotKeys) < 2 {
		t.Fatalf("only %d fresh keys over %d pairs: rotation not exercised", g.fresh, len(g.pairs))
	}
}

func TestHotShareAndRetransmitFlags(t *testing.T) {
	w := smallWorld(t)
	sp := mustSpec(t, "resubmit_binary")
	g, err := newGenerator(w, sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[key]bool{}
	for i := 0; i < hotKeys; i++ {
		e := g.withDomain(i, 0)
		hot[eventKey(&e)] = true
	}
	var events, hotEvents, resends int
	freshSeen := map[key]bool{}
	const requests = 200
	for i := 0; i < requests; i++ {
		r, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		if r.resend {
			resends++
		}
		if r.pick < 0 || r.pick >= 1 {
			t.Fatalf("pick %v outside [0,1)", r.pick)
		}
		for j := range r.events {
			events++
			k := eventKey(&r.events[j])
			if hot[k] {
				hotEvents++
			} else if freshSeen[k] {
				t.Fatalf("fresh key %v repeats", k)
			} else {
				freshSeen[k] = true
			}
		}
	}
	if share := float64(hotEvents) / float64(events); math.Abs(share-sp.hotShare) > 0.02 {
		t.Errorf("hot share %.3f, want %.2f", share, sp.hotShare)
	}
	if share := float64(resends) / requests; math.Abs(share-sp.retransmit) > 0.1 {
		t.Errorf("retransmit share %.3f, want %.2f", share, sp.retransmit)
	}
	if s := mustSpec(t, "longtail_durable"); s.hotShare != 0 || s.retransmit != 0 {
		t.Error("longtail_durable must carry fresh keys and new IDs only")
	}
}

func TestRetransmitTiming(t *testing.T) {
	l := &loader{sp: mustSpec(t, "resubmit_binary")}
	now := time.Now()
	own := &request{id: "own", events: make([]event, 3), resend: true, pick: 0.99}
	if id, _, _, _, resent := l.substitute(own, now); resent || id != "own" {
		t.Fatalf("nothing answered yet, but sent %q as a retransmit", id)
	}
	// Answers at -3s, -2s (old enough) and -0.1s (too young).
	for i, age := range []time.Duration{3 * time.Second, 2 * time.Second, 100 * time.Millisecond} {
		l.remember(answered{id: string(rune('a' + i)), n: 3, sum: uint64(i), at: now.Add(-age)})
	}
	for _, c := range []struct {
		pick float64
		want string
	}{{0, "a"}, {0.49, "a"}, {0.5, "b"}, {0.999, "b"}} {
		own.pick = c.pick
		id, _, _, _, resent := l.substitute(own, now)
		if !resent || id != c.want {
			t.Errorf("pick %v retransmits %q (resent %v), want %q", c.pick, id, resent, c.want)
		}
	}
	own.resend = false
	if id, _, _, _, resent := l.substitute(own, now); resent || id != "own" {
		t.Errorf("unflagged request was swapped for %q", id)
	}
	// IDs the nodes may have evicted are never resent: push the old
	// answers more than half the retention back in answer order.
	own.resend = true
	l.mu.Lock()
	l.fresh += resultRetention
	l.mu.Unlock()
	if id, _, _, _, resent := l.substitute(own, now); resent {
		t.Errorf("retransmitted %q, which is beyond the dedup retention", id)
	}
	// Answers closer together than answeredGap are not all kept.
	l = &loader{sp: l.sp}
	for i := 0; i < 10; i++ {
		l.remember(answered{id: "x", at: now.Add(time.Duration(i) * answeredGap / 4)})
	}
	if len(l.answered) >= 10 || l.fresh != 10 {
		t.Errorf("kept %d of 10 closely spaced answers, counted %d", len(l.answered), l.fresh)
	}
}

// echoVerdicts answers /classify with one line per request line.
func echoVerdicts(delayFirst time.Duration) http.Handler {
	var calls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(delayFirst)
		}
		w.Write([]byte(strings.Repeat("{}\n", bytes.Count(body, []byte{'\n'}))))
	})
}

func TestOpenLoopSchedule(t *testing.T) {
	w := smallWorld(t)
	sp := mustSpec(t, "bulk_stateless")
	sp.batch = 4
	ts := httptest.NewServer(echoVerdicts(100 * time.Millisecond))
	defer ts.Close()
	g, err := newGenerator(w, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One connection, so the stalled first request holds back the ones
	// due behind it and their wait must show in their latency.
	l := newLoader(sp, ts.URL, 1, 1, g, func() error { return nil })
	ctx, cancel := context.WithCancel(context.Background())
	prod := make(chan error, 1)
	go func() { prod <- l.produce(ctx) }()
	ph, err := l.run(ctx, "mid", 100, 500*time.Millisecond)
	cancel()
	if perr := <-prod; perr != nil {
		t.Fatal(perr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted != 50 || ph.failed != 0 || ph.backlog != 0 {
		t.Fatalf("attempted %d failed %d backlog %d, want 50 0 0 (%v)", ph.attempted, ph.failed, ph.backlog, ph.firstErr)
	}
	if ph.events != 50*4 {
		t.Errorf("events = %d", ph.events)
	}
	// Requests 2..9 were due at 10..90 ms and could only go at ~100 ms:
	// from their due time they waited 90..10 ms although each exchange
	// took far less.
	if got := ph.p(1); got < 100*time.Millisecond {
		t.Errorf("max latency %v does not include the stall", got)
	}
	over := 0
	for _, d := range ph.lat {
		if d > 40*time.Millisecond {
			over++
		}
	}
	if over < 5 {
		t.Errorf("%d requests show the stall in their latency, want >= 5: queueing is hidden", over)
	}
	if got := quantile(ph.late, 1); got < 50*time.Millisecond {
		t.Errorf("generator lateness %v does not report the held-back sends", got)
	}
	// A stall that outlasts the step drops nothing: the nine requests due
	// behind the stalled one go out after the schedule's end, are answered,
	// and are the step's backlog.
	stalled := httptest.NewServer(echoVerdicts(300 * time.Millisecond))
	defer stalled.Close()
	sctx, scancel := context.WithCancel(context.Background())
	l1 := newLoader(sp, stalled.URL, 1, 1, g, func() error { return nil })
	go func() { prod <- l1.produce(sctx) }()
	st, err := l1.run(sctx, "hi", 100, 100*time.Millisecond)
	scancel()
	<-prod
	if err != nil || st.attempted != 10 || st.failed != 0 || st.backlog != 9 || st.events != 10*4 {
		t.Fatalf("stalled step: attempted %d failed %d backlog %d events %d, want 10 0 9 40 (%v, %v)",
			st.attempted, st.failed, st.backlog, st.events, err, st.firstErr)
	}
	// A closed loop on the same target just sends back to back.
	cctx, ccancel := context.WithCancel(context.Background())
	l2 := newLoader(sp, ts.URL, 2, 2, g, func() error { return nil })
	go func() { prod <- l2.produce(cctx) }()
	cl, err := l2.run(cctx, "closed", 0, 200*time.Millisecond)
	ccancel()
	<-prod
	if err != nil || cl.failed != 0 || cl.attempted < 10 {
		t.Fatalf("closed loop: %+v, %v", cl, err)
	}
	if cl.wall <= 0 || cl.wall > time.Second || cl.events != int64(4*cl.attempted) {
		t.Errorf("closed loop: wall %v, %d events for %d requests", cl.wall, cl.events, cl.attempted)
	}
}

// TestSendRetransmitsA5xxOnce: a 5xx is retransmitted once and counted;
// a second 5xx, a 4xx or a short reply is a failed request.
func TestSendRetransmitsA5xxOnce(t *testing.T) {
	var calls atomic.Int64
	status := []int{500, 200, 500, 500, 400, 200}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if code := status[calls.Add(1)-1]; code != http.StatusOK {
			http.Error(w, "journal: sync: record not covered", code)
			return
		}
		w.Write([]byte("{}\n{}\n"))
	}))
	defer ts.Close()
	l := newLoader(mustSpec(t, "longtail_durable"), ts.URL, 1, 1, nil, nil)
	var buf bytes.Buffer
	req := &request{id: "r1", events: make([]event, 2), body: []byte("a\nb\n")}
	if n, _, retried, err := l.send(context.Background(), req, &buf); err != nil || n != 2 || !retried || calls.Load() != 2 {
		t.Errorf("500 then 200: n %d retried %v calls %d err %v", n, retried, calls.Load(), err)
	}
	if _, _, retried, err := l.send(context.Background(), req, &buf); err == nil || !retried || calls.Load() != 4 {
		t.Errorf("500 twice: retried %v calls %d err %v, want a failure after two attempts", retried, calls.Load(), err)
	}
	if _, _, retried, err := l.send(context.Background(), req, &buf); err == nil || retried || calls.Load() != 5 {
		t.Errorf("400: retried %v calls %d err %v, want a failure after one attempt", retried, calls.Load(), err)
	}
	req.events = make([]event, 3)
	if _, _, _, err := l.send(context.Background(), req, &buf); !errors.Is(err, errWrongReply) {
		t.Errorf("two verdicts for three events: %v, want a wrong reply", err)
	}
}

func TestVerdictCount(t *testing.T) {
	w := smallWorld(t)
	body, err := encodeBody(w.events[:5], true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, []byte("lte1")) || verdictCount(body, true) != 5 {
		t.Errorf("binary body starts %q, count %d", body[:8], verdictCount(body, true))
	}
	if got := verdictCount([]byte("a\nb\nc\n"), false); got != 3 {
		t.Errorf("json verdict count = %d", got)
	}
	if got := verdictCount([]byte("lt"), true); got != 0 {
		t.Errorf("short binary reply counted %d", got)
	}
}
