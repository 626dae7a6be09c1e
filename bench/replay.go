package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// replayRequests is how many requests of the stream the traced replay
// walks through the layers; a pass stops earlier when its share of the
// run's seconds is used up (bulk_stateless needs ~5 ms per request).
const replayRequests = 2000

// layerCounts fills in the per-layer metrics that are read from outside
// the real processes: /metrics deltas, /proc CPU and memory, and the
// generator's own diagnostics, all as measured. Counts cover the closed
// phase through the hi step.
func (r *runner) layerCounts(v map[string]float64, d *deployment, t *timeline) {
	n0, n1 := t.s0.nodes, t.sHi.nodes
	r0, r1 := t.s0.router, t.sHi.router
	requests := delta(n0, n1, `longtail_requests_total{result="accepted"}`)
	events := delta(n0, n1, "longtail_events_total")
	v["serve.requests"] = requests
	v["serve.dedup_hits"] = delta(n0, n1, `longtail_requests_total{result="dedup"}`)
	v["serve.deferred"] = delta(n0, n1, `longtail_requests_total{result="deferred"}`)
	v["serve.rejected"] = delta(n0, n1, `longtail_requests_total{result="rejected"}`)
	v["serve.bad"] = delta(n0, n1, `longtail_requests_total{result="bad"}`)

	v["engine.memo_hit_ratio"] = ratio(delta(n0, n1, "longtail_memo_hits_total"), events)
	v["engine.queue_wait_us_mean"] = 1e6 * histMean(n0, n1, "longtail_stage_latency_seconds", `{stage="queue"}`)
	v["engine.shed"] = delta(n0, n1, "longtail_shed_expired_total")

	none := delta(n0, n1, `longtail_verdicts_total{verdict="none"}`)
	var verdicts float64
	for _, name := range []string{"none", "benign", "malicious", "rejected"} {
		verdicts += delta(n0, n1, `longtail_verdicts_total{verdict="`+name+`"}`)
	}
	v["classify.matched_share"] = ratio(verdicts-none, verdicts)

	journaled := requests - v["serve.dedup_hits"]
	v["journal.fsyncs_per_request"] = ratio(delta(n0, n1, "longtail_journal_syncs_total"), journaled)
	v["journal.sync_batch_mean"] = histMean(n0, n1, "longtail_journal_sync_batch", "")
	v["journal.bytes_per_request"] = ratio(delta(n0, n1, "longtail_journal_bytes_total"), journaled)
	v["journal.bytes_per_event"] = ratio(delta(n0, n1, "longtail_journal_bytes_total"), events)
	v["journal.compactions"] = delta(n0, n1, "longtail_journal_compactions_total")
	v["journal.rotations"] = delta(n0, n1, "longtail_journal_rotations_total")

	v["cluster.failovers"] = delta(r0, r1, "longtail_failover_total")
	v["cluster.hedged"] = delta(r0, r1, "longtail_hedged_total")
	v["cluster.no_replica"] = delta(r0, r1, "longtail_router_no_replica_total")
	var shareMax float64
	if d.routerURL != "" {
		for i := range t.s0.perNode {
			got := delta(t.s0.perNode[i], t.sHi.perNode[i], `longtail_requests_total{result="accepted"}`)
			shareMax = max(shareMax, ratio(got, requests))
		}
	}
	v["cluster.node_share_max"] = shareMax
	v["router.cpu_us_per_request"] = ratio(us(t.sHi.rtrCPU-t.s0.rtrCPU), delta(r0, r1, "longtail_router_requests_total"))

	var answered float64
	var late []time.Duration
	retried := 0
	for _, ph := range t.measured() {
		answered += float64(ph.events)
		late = append(late, ph.late...)
		retried += ph.retried
	}
	sortDurations(late)
	selfCPU := t.sHi.selfCPU - t.s0.selfCPU
	daemonCPU := t.sHi.nodeCPU + t.sHi.rtrCPU - t.s0.nodeCPU - t.s0.rtrCPU
	v["node.cpu_us_per_event"] = ratio(us(t.sHi.nodeCPU-t.sClosed.nodeCPU), answered-float64(t.closed.events))
	var rss, peak float64
	for _, pid := range d.pids() {
		if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
			rss = max(rss, kb/1024)
		}
		if kb, err := procStatusKB(pid, "VmHWM"); err == nil {
			peak = max(peak, kb/1024)
		}
	}
	v["node.rss_mb"], v["node.peak_rss_mb"] = rss, peak

	v["loadgen.cpu_us_per_event"] = t.selfOpenUS
	v["loadgen.closed_cpu_us_per_event"] = t.selfClosedUS
	v["loadgen.host_speed"] = t.speedOpen
	v["loadgen.closed_host_speed"] = t.speedClosed
	v["loadgen.cpu_share"] = ratio(float64(selfCPU), float64(selfCPU+daemonCPU))
	v["loadgen.late_ms_p99"] = ms(quantile(late, 0.99))
	v["loadgen.backlog_end"] = float64(t.hi.backlog)
	v["loadgen.retried_5xx"] = float64(retried)
	v["loadgen.closed_p50_ms"] = ms(t.closed.p(0.50))
	v["loadgen.closed_events_per_s"] = t.rawRate
	v["loadgen.mid_p50_ms"] = t.rawP50
	v["loadgen.lo_p50_ms"] = ms(t.lo.p(0.50))
	v["loadgen.mid_p90_ms"] = ms(t.mid.p(0.90))
	q := highestPercentile(len(t.mid.lat))
	v["loadgen.mid_tail_ms"] = ms(t.mid.p(q))
	v["loadgen.mid_tail_percentile"] = 100 * q
	v["loadgen.mid_max_ms"] = ms(t.mid.p(1))
	v["loadgen.mid_samples"] = float64(len(t.mid.lat))
	v["loadgen.hi_p50_ms"] = ms(t.hi.p(0.50))
	q = highestPercentile(len(t.hi.lat))
	v["loadgen.hi_tail_ms"] = ms(t.hi.p(q))
	v["loadgen.hi_tail_percentile"] = 100 * q
	var okRate float64
	for _, ph := range []*phase{t.lo, t.mid, t.hi} {
		if ph.failed == 0 && ph.backlog == 0 && ph.p(highestPercentile(len(ph.lat))) <= maxRateLimit {
			okRate = max(okRate, ph.rate)
		}
	}
	v["loadgen.max_rate_ok_rps"] = okRate
}

// maxRateLimit is the latency limit a rate step must meet, on the
// highest percentile its sample supports, to count as sustained.
const maxRateLimit = 250 * time.Millisecond

// replayed is one request of the stream prepared for the in-process
// passes, in both wire formats.
type replayed struct {
	req    *request
	jsonB  []byte // canonical line-JSON body
	binB   []byte
	resend int // index of the earlier request this one retransmits, -1 for none
}

// replay walks the first requests of the workload through the layers'
// public functions in this process and derives the per-layer times.
// Nothing here feeds an end-to-end metric.
func (r *runner) replay(ctx context.Context, w *world, d *deployment, v map[string]float64) error {
	dir, err := os.MkdirTemp(workRoot, "trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pass := time.Duration(0.07 * r.seconds * float64(time.Second))
	gen, err := newGenerator(w, r.sp, r.seed)
	if err != nil {
		return err
	}
	v["classify.rules"] = float64(w.ruleCount())

	// The layer chain, recording every other request: the unrecorded ones,
	// interleaved with the recorded on the same stack in the same seconds,
	// are what recording is measured against.
	rec := newRecorder(true)
	reqs, on, off, st, err := r.chainPass(ctx, w, filepath.Join(dir, "chain"), rec, gen, pass)
	if err != nil {
		return err
	}
	defer st.close()
	sortDurations(on)
	sortDurations(off)
	// Medians: one ledger compaction falls into one request or the other
	// and weighs as much as a hundred of them.
	v["trace.overhead_share"] = ratio(float64(quantile(on, 0.5)-quantile(off, 0.5)), float64(quantile(off, 0.5)))

	spans := rec.all()
	totals := layerTotals(spans)
	mean := func(name string) float64 {
		if t := totals[name]; t != nil {
			return us(t.total) / float64(t.count)
		}
		return 0
	}
	nreq := float64(len(on))
	var events, layerSum float64
	for i, q := range reqs {
		if recorded(i) && q.resend < 0 {
			events += float64(len(q.req.events))
		}
	}
	for _, t := range totals {
		if t != totals["features.vector"] && t != totals["classify.match"] {
			layerSum += us(t.self)
		}
	}
	v["trace.layer_sum_us"] = layerSum / nreq
	v["trace.coverage"] = ratio(layerSum/nreq, 1000*v["loadgen.closed_p50_ms"])
	v["ledger.accept_us"] = mean("ledger.accept")
	v["ledger.result_us"] = mean("ledger.result")
	v["engine.classify_us_per_batch"] = mean("engine.classify")

	// Engine self time: what ClassifyBatch took beyond extracting and
	// matching the events that missed its memo, those two timed on the
	// same events directly.
	em := st.engine.Metrics()
	missShare := 1 - ratio(float64(em.MemoHits.Load()), float64(em.EventsIn.Load()))
	var vecNS, matchNS, classifyNS float64
	if t := totals["features.vector"]; t != nil {
		vecNS = float64(t.total)
	}
	if t := totals["classify.match"]; t != nil {
		matchNS = float64(t.total)
	}
	if t := totals["engine.classify"]; t != nil {
		classifyNS = float64(t.total)
	}
	v["features.vector_ns_per_event"] = ratio(vecNS, events)
	v["classify.match_ns_per_event"] = ratio(matchNS, events)
	v["engine.self_ns_per_event"] = ratio(classifyNS-missShare*(vecNS+matchNS), events)

	if err := r.eventLoops(w, reqs, v); err != nil {
		return err
	}
	if err := r.handlerPasses(ctx, w, dir, reqs, v, mean("request")-us(totals["request"].self)/float64(totals["request"].count)); err != nil {
		return err
	}
	if r.sp.journal {
		if err := r.ledgerOps(w, dir, st, reqs, v); err != nil {
			return err
		}
		if err := r.journalOps(dir, reqs, v); err != nil {
			return err
		}
	} else {
		for _, name := range []string{"ledger.lookup_miss_ns", "ledger.lookup_hit_ns", "ledger.compact_pause_ms", "ledger.recover_ms",
			"ledger.export_us_per_entry", "ledger.import_us_per_entry",
			"journal.append_sync_us", "journal.append_async_us", "journal.recover_ms"} {
			v[name] = 0
		}
	}
	if err := r.clusterOps(ctx, d, reqs, v, pass); err != nil {
		return err
	}
	path := filepath.Join(workRoot, "spans-"+r.sp.name+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "  traced replay: %d requests, %d spans written to %s\n", len(reqs), len(spans), path)
	return nil
}

// recorded says whether the chain pass records spans for request i: two
// requests on, two off. Plain alternation would put every recorded
// request on one journal shard and every unrecorded one on the other,
// since consecutive request IDs differ in their last digit only and the
// shard is a hash of the ID modulo two.
func recorded(i int) bool { return i%4 < 2 }

// chainPass draws requests from gen, up to replayRequests or the time
// budget, and sends each through the calls the handler makes, in the
// handler's order, recording one span per call for every other request.
// It returns the requests and how long each recorded and each unrecorded
// one took.
func (r *runner) chainPass(ctx context.Context, w *world, dir string, rec *recorder, gen *generator, budget time.Duration) (reqs []*replayed, on, off []time.Duration, st *stack, err error) {
	journalDir := ""
	if r.sp.journal {
		journalDir = dir
	}
	if st, err = newStack(w, journalDir); err != nil {
		return nil, on, off, nil, err
	}
	fail := func(err error) ([]*replayed, []time.Duration, []time.Duration, *stack, error) {
		st.close()
		return nil, on, off, nil, err
	}
	began := time.Now()
	for i := 0; i < replayRequests && time.Since(began) <= budget; i++ {
		req, err := gen.next()
		if err != nil {
			return fail(err)
		}
		q := &replayed{req: req, resend: -1}
		if q.jsonB, err = encodeBody(req.events, false); err != nil {
			return fail(err)
		}
		if q.binB, err = encodeBody(req.events, true); err != nil {
			return fail(err)
		}
		if req.resend && i > 0 {
			q.resend = int(req.pick * float64(i))
			for reqs[q.resend].resend >= 0 {
				q.resend = reqs[q.resend].resend
			}
		}
		reqs = append(reqs, q)
		rec.on = recorded(i)
		took, err := r.chain(ctx, w, st, rec, q, reqs)
		if err != nil {
			return fail(err)
		}
		if rec.on {
			on = append(on, took)
		} else {
			off = append(off, took)
		}
	}
	return reqs, on, off, st, nil
}

// chain is one request through the layers, whose duration it returns,
// then, outside the request span and that duration, the same events
// through the extractor and the matcher directly, to split the engine's
// time.
func (r *runner) chain(ctx context.Context, w *world, st *stack, rec *recorder, q *replayed, all []*replayed) (request time.Duration, err error) {
	seq := q.req.seq
	t0 := time.Now()
	root := rec.start("request", seq, 0)
	events, err := r.chainRequest(ctx, st, rec, root, q, all)
	rec.end(root)
	request = time.Since(t0)
	// The loops below run for unrecorded requests too, so that recording
	// is all that tells the two kinds apart.
	if err != nil || events == nil {
		return request, err
	}
	vecs := make([]vector, len(events))
	s := rec.start("features.vector", seq, 0)
	for i := range events {
		if vecs[i], err = w.vector(&events[i]); err != nil {
			return request, err
		}
	}
	rec.end(s)
	s = rec.start("classify.match", seq, 0)
	for i := range events {
		w.match(vecs[i], &events[i])
	}
	rec.end(s)
	return request, nil
}

// chainRequest makes the handler's calls in the handler's order under
// the root span and returns the events it classified, nil when the
// ledger answered.
func (r *runner) chainRequest(ctx context.Context, st *stack, rec *recorder, root int, q *replayed, all []*replayed) ([]event, error) {
	seq := q.req.seq
	id := q.req.id
	if q.resend >= 0 {
		id = all[q.resend].req.id
	}
	if r.sp.journal {
		s := rec.start("ledger.lookup", seq, root)
		hit := st.ledgerLookup(id)
		rec.end(s)
		if hit != (q.resend >= 0) {
			return nil, fmt.Errorf("request %s: ledger hit %v, retransmit %v", id, hit, q.resend >= 0)
		}
		if hit {
			return nil, nil
		}
	}

	// The JSON wire parses lines; the binary wire decodes inside the
	// handler (its codec is unexported) and then renders the canonical
	// lines the ledger journals, which is the part timed here.
	events := q.req.events
	body := string(q.jsonB)
	if r.sp.binary {
		s := rec.start("export.append", seq, root)
		canon := make([]byte, 0, 2*len(q.binB))
		for i := range events {
			var err error
			if canon, err = appendEventLine(canon, &events[i]); err != nil {
				rec.end(s)
				return nil, err
			}
			canon = append(canon, '\n')
		}
		rec.end(s)
		body = string(canon)
	} else {
		s := rec.start("export.parse", seq, root)
		parsed := make([]event, 0, len(events))
		for rest := body; len(rest) > 0; {
			line := rest
			if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
				line, rest = rest[:nl], rest[nl+1:]
			} else {
				rest = ""
			}
			ev, err := parseEventLine(line)
			if err != nil {
				rec.end(s)
				return nil, err
			}
			parsed = append(parsed, ev)
		}
		rec.end(s)
		events = parsed
	}

	var acceptErr chan error
	if r.sp.journal {
		acceptErr = make(chan error, 1)
		go func() {
			s := rec.start("ledger.accept", seq, root)
			err := st.ledgerAccept(id, events, body)
			rec.end(s)
			acceptErr <- err
		}()
	}
	s := rec.start("engine.classify", seq, root)
	verdicts, err := st.classifyBatch(ctx, events)
	rec.end(s)
	if acceptErr != nil {
		if aerr := <-acceptErr; aerr != nil {
			return nil, aerr
		}
	}
	if err != nil {
		return nil, err
	}
	if r.sp.journal {
		s := rec.start("ledger.result", seq, root)
		err := st.ledgerResult(id, verdicts)
		rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	return events, nil
}

// allocsPer runs f and returns its heap allocations per n.
func allocsPer(n int, f func() error) (float64, time.Duration, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-before.Mallocs), float64(n)), took, err
}

// eventLoops times the per-event codec, extractor and matcher calls in
// tight loops over the replayed events, with allocation counts.
func (r *runner) eventLoops(w *world, reqs []*replayed, v map[string]float64) error {
	const maxEvents = 50000
	var events []event
	var lines []string
	for _, q := range reqs {
		if len(events) >= maxEvents {
			break
		}
		events = append(events, q.req.events...)
		lines = append(lines, strings.Split(strings.TrimSuffix(string(q.jsonB), "\n"), "\n")...)
	}
	n := len(events)
	allocs, took, err := allocsPer(n, func() error {
		for _, line := range lines {
			if _, err := parseEventLine(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["export.parse_ns_per_event"] = ratio(float64(took), float64(n))
	v["export.parse_allocs_per_event"] = allocs

	buf := make([]byte, 0, 512)
	_, took, err = allocsPer(n, func() error {
		for i := range events {
			var err error
			if buf, err = appendEventLine(buf[:0], &events[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["export.append_ns_per_event"] = ratio(float64(took), float64(n))

	vecs := make([]vector, n)
	allocs, _, err = allocsPer(n, func() error {
		for i := range events {
			var err error
			if vecs[i], err = w.vector(&events[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["features.vector_allocs_per_event"] = allocs
	allocs, _, _ = allocsPer(n, func() error {
		for i := range events {
			w.match(vecs[i], &events[i])
		}
		return nil
	})
	v["classify.match_allocs_per_event"] = allocs
	return nil
}

// serveHTTP sends one body through a stack's handler and returns how
// long the handler took.
func serveHTTP(st *stack, id string, body []byte, binaryWire bool) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body))
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if binaryWire {
		req.Header.Set("Content-Type", contentTypeBinary)
	}
	rw := httptest.NewRecorder()
	t0 := time.Now()
	st.handler.ServeHTTP(rw, req)
	took := time.Since(t0)
	if rw.Code != http.StatusOK {
		return 0, fmt.Errorf("handler: request %s: status %d: %.200s", id, rw.Code, rw.Body.Bytes())
	}
	return took, nil
}

// handlerPasses times the whole HTTP handler on the replayed requests,
// once per wire format, then the dedup path on IDs it has answered.
// chainChildrenUS is the mean time per request the layer chain spent
// inside layer calls; what the handler takes beyond it is its own.
func (r *runner) handlerPasses(ctx context.Context, w *world, dir string, reqs []*replayed, v map[string]float64, chainChildrenUS float64) error {
	for _, binaryWire := range []bool{false, true} {
		name, sub := "serve.handler_json_us_per_batch", "handler-json"
		if binaryWire {
			name, sub = "serve.handler_bin_us_per_batch", "handler-bin"
		}
		journalDir := ""
		if r.sp.journal {
			journalDir = filepath.Join(dir, sub)
		}
		st, err := newStack(w, journalDir)
		if err != nil {
			return err
		}
		var total, dedup time.Duration
		ndedup := 0
		for _, q := range reqs {
			id, body := q.req.id, q.jsonB
			if binaryWire {
				body = q.binB
			}
			if q.resend >= 0 {
				id = reqs[q.resend].req.id
			}
			took, err := serveHTTP(st, id, body, binaryWire)
			if err != nil {
				st.close()
				return err
			}
			total += took
		}
		// Dedup: resend what was answered, on this stack's wire format.
		if r.sp.journal && binaryWire == r.sp.binary {
			for _, q := range reqs {
				if q.resend >= 0 || ndedup == 200 {
					continue
				}
				body := q.jsonB
				if binaryWire {
					body = q.binB
				}
				took, err := serveHTTP(st, q.req.id, body, binaryWire)
				if err != nil {
					st.close()
					return err
				}
				dedup += took
				ndedup++
			}
			v["serve.handler_dedup_us"] = ratio(us(dedup), float64(ndedup))
		}
		st.close()
		v[name] = us(total) / float64(len(reqs))
		if binaryWire == r.sp.binary {
			v["serve.handler_us_per_batch"] = v[name]
			v["serve.handler_self_us_per_batch"] = v[name] - chainChildrenUS
		}
	}
	if !r.sp.journal {
		v["serve.handler_dedup_us"] = 0
	}
	return nil
}

// ledgerOps times the ledger calls that are not on every request:
// lookups by outcome, a compaction of the populated ledger, recovery
// from its directory, and handoff export and import.
func (r *runner) ledgerOps(w *world, dir string, st *stack, reqs []*replayed, v map[string]float64) error {
	var hitNS, missNS time.Duration
	n := 0
	for _, q := range reqs {
		if q.resend >= 0 {
			continue
		}
		t0 := time.Now()
		hit := st.ledgerLookup(q.req.id)
		t1 := time.Now()
		miss := st.ledgerLookup(q.req.id + "-never-sent")
		t2 := time.Now()
		if !hit || miss {
			return fmt.Errorf("ledger lookup of %s: hit %v, unknown ID hit %v", q.req.id, hit, miss)
		}
		hitNS += t1.Sub(t0)
		missNS += t2.Sub(t1)
		n++
	}
	v["ledger.lookup_hit_ns"] = ratio(float64(hitNS), float64(n))
	v["ledger.lookup_miss_ns"] = ratio(float64(missNS), float64(n))

	t0 := time.Now()
	chunks, entries, err := st.ledgerExport()
	if err != nil {
		return err
	}
	v["ledger.export_us_per_entry"] = ratio(us(time.Since(t0)), float64(entries))
	into, err := newStack(w, filepath.Join(dir, "import"))
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, c := range chunks {
		if err := into.ledgerImport(c); err != nil {
			into.close()
			return err
		}
	}
	v["ledger.import_us_per_entry"] = ratio(us(time.Since(t0)), float64(entries))
	into.close()

	// Recovery: reopen the directory the import just filled, which holds
	// the same entries as a log, not as a snapshot.
	t0 = time.Now()
	l, err := openLedger(filepath.Join(dir, "import"))
	if err != nil {
		return err
	}
	v["ledger.recover_ms"] = ms(time.Since(t0))
	if err := l.Close(); err != nil {
		return err
	}

	t0 = time.Now()
	if err := st.ledgerCompact(); err != nil {
		return err
	}
	v["ledger.compact_pause_ms"] = ms(time.Since(t0))
	return nil
}

// journalOps times raw appends at the workload's accept-record size on
// a bare journal, then its recovery.
func (r *runner) journalOps(dir string, reqs []*replayed, v map[string]float64) error {
	payload := reqs[0].jsonB
	jdir := filepath.Join(dir, "raw-journal")
	j, err := openJournal(jdir)
	if err != nil {
		return err
	}
	const syncN, asyncN = 200, 2000
	t0 := time.Now()
	for i := 0; i < syncN; i++ {
		if err := j.appendSync(fmt.Sprintf("raw-%d", i), payload); err != nil {
			j.close()
			return err
		}
	}
	v["journal.append_sync_us"] = us(time.Since(t0)) / syncN
	t0 = time.Now()
	for i := 0; i < asyncN; i++ {
		if err := j.appendAsync(fmt.Sprintf("raw-async-%d", i), payload); err != nil {
			j.close()
			return err
		}
	}
	v["journal.append_async_us"] = us(time.Since(t0)) / asyncN
	if err := j.close(); err != nil {
		return err
	}
	t0 = time.Now()
	j, err = openJournal(jdir)
	if err != nil {
		return err
	}
	v["journal.recover_ms"] = ms(time.Since(t0))
	return j.close()
}

// clusterOps times the ring and, against the live nodes, an in-process
// router's forward next to a direct post of the same bodies.
func (r *runner) clusterOps(ctx context.Context, d *deployment, reqs []*replayed, v map[string]float64, budget time.Duration) error {
	if !r.sp.router {
		v["cluster.ring_owner_ns"], v["cluster.forward_us"], v["cluster.forward_self_us"] = 0, 0, 0
		return nil
	}
	var addrs []string
	for _, u := range d.nodeURLs {
		pu, err := url.Parse(u)
		if err != nil {
			return err
		}
		addrs = append(addrs, pu.Host)
	}
	ring, err := newRing(addrs)
	if err != nil {
		return err
	}
	const owners = 100000
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("ring-%d-%d", r.seed, i)
	}
	t0 := time.Now()
	for i := 0; i < owners; i++ {
		ringOwner(ring, ids[i%len(ids)])
	}
	v["cluster.ring_owner_ns"] = float64(time.Since(t0)) / owners

	rt, err := newRouter(addrs)
	if err != nil {
		return err
	}
	defer rt.Close()
	l := newLoader(r.sp, "", 1, 1, nil, d.dead)
	var fwd, direct time.Duration
	n := 0
	var buf bytes.Buffer
	began := time.Now()
	for i := 0; i < min(200, len(reqs)) && (i == 0 || time.Since(began) < budget); i++ {
		n++
		q := reqs[i]
		id := fmt.Sprintf("trace-fwd-%d-%d", r.seed, i)
		t0 := time.Now()
		resp, err := routerForward(ctx, rt, id, q.jsonB)
		fwd += time.Since(t0)
		if err != nil {
			return err
		}
		if got := verdictCount(resp, false); got != len(q.req.events) {
			return fmt.Errorf("forward %s: %d verdicts for %d events", id, got, len(q.req.events))
		}
		// The same body straight to the node the ring picks, under
		// another ID so the ledger does not answer it.
		direct1 := &request{id: fmt.Sprintf("trace-direct-%d-%d", r.seed, i), events: q.req.events, body: q.jsonB}
		l.base = "http://" + ringOwner(ring, direct1.id)
		t0 = time.Now()
		_, _, _, err = l.send(ctx, direct1, &buf)
		direct += time.Since(t0)
		if err != nil {
			return err
		}
	}
	v["cluster.forward_us"] = us(fwd) / float64(n)
	v["cluster.forward_self_us"] = us(fwd-direct) / float64(n)
	return nil
}
