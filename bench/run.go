package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// verifyBatches is how many requests the untimed verify pass compares
// verdict for verdict with offline classification.
const verifyBatches = 64

// runLimit ends a run that a wedged daemon would otherwise hold up for
// ever, as an error without a result: an open step sends its whole
// schedule however far behind it is, and the driver gives a run 180 s.
// It counts from the end of set-up, which the first run in a checkout
// spends building.
const runLimit = 150 * time.Second

// plan splits the measured seconds over the phases, the same way in
// both modes: a traced run only adds the in-process replay afterwards.
// The closed phase and the mid step carry the end-to-end metrics and get
// most of the time; the lo and hi steps bracket the mid rate for the
// diagnostics. The warm-up, discarded, is a closed loop: it fills the
// memo, the ledger's retention and the heap fastest, and the closed phase
// took two to three seconds to reach its rate behind an open one.
type plan struct {
	warm, closed, lo, mid, hi time.Duration
}

func planFor(seconds float64) plan {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return plan{warm: d(0.10), closed: d(0.30), lo: d(0.10), mid: d(0.40), hi: d(0.10)}
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner is one benchmark run of one workload.
type runner struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool
	callers int       // closed loop: callers that each wait for their reply
	conns   int       // open steps: requests in flight at most
	log     io.Writer // progress and diagnostics, never the result line

	// scale is the corpus scale, corpusScale in every benchmark run, and
	// prebuilt a world of that scale built earlier (tests share one).
	scale    float64
	prebuilt *world
	// deploy overrides building and booting child processes; the
	// package's tests point it at in-process servers over the same world.
	deploy func(w *world, sp spec) (*deployment, error)
}

// snapshot is every counter the run reads from outside the daemons at
// one instant.
type snapshot struct {
	nodes   samples // /metrics of all nodes, summed
	perNode []samples
	router  samples
	nodeCPU time.Duration
	rtrCPU  time.Duration
	selfCPU time.Duration
}

func (r *runner) snap(ctx context.Context, d *deployment, l *loader) (*snapshot, error) {
	// Clocks first, so that fetching the counters below falls outside the
	// step just ended.
	s := &snapshot{}
	var err error
	if s.selfCPU, err = l.senderCPU(); err != nil {
		return nil, err
	}
	for _, pid := range d.nodePIDs {
		c, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		s.nodeCPU += c
	}
	if d.routerPID != 0 {
		if s.rtrCPU, err = procCPU(d.routerPID); err != nil {
			return nil, err
		}
	}
	for _, u := range d.nodeURLs {
		text, err := fetchMetrics(ctx, newClient(u, false))
		if err != nil {
			return nil, fmt.Errorf("metrics of %s: %w", u, err)
		}
		s.perNode = append(s.perNode, parseMetrics(text))
	}
	s.nodes = sumSamples(s.perNode)
	if d.routerURL != "" {
		text, err := fetchMetrics(ctx, newClient(d.routerURL, false))
		if err != nil {
			return nil, fmt.Errorf("metrics of router: %w", err)
		}
		s.router = parseMetrics(text)
	}
	return s, nil
}

// setup builds the world and the binaries side by side, then boots.
func (r *runner) setup(ctx context.Context) (*world, *deployment, error) {
	var (
		wg       sync.WaitGroup
		w        *world
		werr     error
		dbin     string
		rbin     string
		builderr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w = r.prebuilt; w == nil {
			w, werr = buildWorld(r.scale)
		}
	}()
	if r.deploy == nil {
		dbin, rbin, builderr = buildBinaries(ctx)
	}
	wg.Wait()
	if werr != nil {
		return nil, nil, fmt.Errorf("corpus: %w", werr)
	}
	if builderr != nil {
		return nil, nil, builderr
	}
	var d *deployment
	var err error
	if r.deploy != nil {
		d, err = r.deploy(w, r.sp)
	} else {
		d, err = boot(ctx, r.sp, dbin, rbin)
	}
	if err != nil {
		return nil, nil, err
	}
	return w, d, nil
}

// verify sends the first requests of the stream through serve.Client
// and compares every verdict with the offline classifier's.
func (r *runner) verify(ctx context.Context, w *world, d *deployment, l *loader) (int, error) {
	c := newClient(d.target, r.sp.binary)
	for b := 0; b < verifyBatches; b++ {
		req, ok := <-l.feed
		if !ok {
			return b, fmt.Errorf("request stream ended in the verify pass")
		}
		keys, err := classifyChecked(ctx, c, req.id, req.events)
		if err != nil {
			return b, fmt.Errorf("verify batch %d: %w", b, err)
		}
		for i := range req.events {
			want, err := w.offlineKey(&req.events[i])
			if err != nil {
				return b, err
			}
			if keys[i] != want {
				return b, fmt.Errorf("verify batch %d event %d: served %q, offline %q", b, i, keys[i], want)
			}
		}
	}
	return verifyBatches, nil
}

// timeline is what one run measured from outside the daemons: its
// phases in the order they ran, and a snapshot of every counter at each
// boundary.
type timeline struct {
	warm, closed, lo, mid, hi   *phase
	s0, sClosed, sLo, sMid, sHi *snapshot // after warm, closed, lo, mid, hi

	// filled in by endToEnd
	selfClosedUS, selfOpenUS      float64 // generator CPU per event
	speedClosed, speedOpen        float64 // host speed, 1 = the definition box as first measured
	rawRate, rawP50, rawDaemonCPU float64 // as measured
}

// measured phases, in order, warm-up excluded.
func (t *timeline) measured() []*phase { return []*phase{t.closed, t.lo, t.mid, t.hi} }

// run executes the workload and returns every metric it measured, by
// name; the caller keeps the ones BENCHMARK.json lists for the mode.
func (r *runner) run(ctx context.Context) (res *result, values map[string]float64, err error) {
	began := time.Now()
	w, d, err := r.setup(ctx)
	setup := time.Since(began)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	fmt.Fprintf(r.log, "%s: set-up %.2fs, %d callers, %d connections\n", r.sp.name, setup.Seconds(), r.callers, r.conns)

	gen, err := newGenerator(w, r.sp, r.seed)
	if err != nil {
		return nil, nil, err
	}
	l := newLoader(r.sp, d.target, r.callers, r.conns, gen, d.dead)
	pctx, stopProducer := context.WithCancel(ctx)
	prodErr := make(chan error, 1)
	go func() { prodErr <- l.produce(pctx) }()
	defer func() {
		stopProducer()
		if perr := <-prodErr; perr != nil && err == nil {
			err = fmt.Errorf("request stream: %w", perr)
		}
	}()

	verified, err := r.verify(ctx, w, d, l)
	if err != nil {
		if derr := d.dead(); derr != nil {
			return nil, nil, derr
		}
		return nil, nil, err
	}

	pl := planFor(r.seconds)
	step := func(name string, rate float64, dur time.Duration) (*phase, *snapshot, error) {
		ph, err := l.run(ctx, name, rate, dur)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(r.log, "  %-6s %6.0f req/s offered: %d sent, %d failed, %d retransmits, p50 %.3f ms, p99 %.3f ms, max %.1f ms, backlog %d\n",
			name, rate, ph.attempted, ph.failed, ph.retransmits, ms(ph.p(0.50)), ms(ph.p(0.99)), ms(ph.p(1)), ph.backlog)
		if ph.retried > 0 {
			fmt.Fprintf(r.log, "  DEFECT: %d requests were answered 5xx and succeeded when retransmitted; see README.md, Defects\n", ph.retried)
		}
		if ph.firstErr != nil {
			fmt.Fprintf(r.log, "  first failure: %v\n", ph.firstErr)
		}
		s, err := r.snap(ctx, d, l)
		return ph, s, err
	}
	t := &timeline{}
	if t.warm, t.s0, err = step("warm", 0, pl.warm); err != nil {
		return nil, nil, err
	}
	if t.closed, t.sClosed, err = step("closed", 0, pl.closed); err != nil {
		return nil, nil, err
	}
	if t.lo, t.sLo, err = step("lo", r.sp.rates[0], pl.lo); err != nil {
		return nil, nil, err
	}
	if t.mid, t.sMid, err = step("mid", r.sp.rates[1], pl.mid); err != nil {
		return nil, nil, err
	}
	if t.hi, t.sHi, err = step("hi", r.sp.rates[2], pl.hi); err != nil {
		return nil, nil, err
	}

	values = r.endToEnd(t, setup)
	res = &result{Correct: true, Attempted: verified}
	for _, ph := range append([]*phase{t.warm}, t.measured()...) {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.wrong > 0 {
			fmt.Fprintf(r.log, "  INCORRECT: %d wrong replies in phase %s\n", ph.wrong, ph.name)
			res.Correct = false
		}
	}
	// The counters' own consistency checks hold on every run, traced or
	// not: they are what makes a metric mean what its name says.
	for _, problem := range r.invariants(t) {
		fmt.Fprintf(r.log, "  INCORRECT: %s\n", problem)
		res.Correct = false
	}
	r.layerCounts(values, d, t)
	if r.traced {
		if err := r.replay(ctx, w, d, values); err != nil {
			return nil, nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, values, nil
}

// endToEnd derives the end-to-end metrics.
//
// The three time metrics are stated at the speed the definition box had
// when it was first measured. Identical runs on that box, a two-core VM,
// differ by a factor of up to 1.8 within an hour, and latency, CPU per
// event and throughput move together with the generator's own CPU time
// per event (senderCPU: fixed work per request in this package, net/http
// and the runtime). So each step measures the host while it measures the
// system:
// host speed = the generator's CPU per event as first measured there
// (spec.refSelf) over its CPU per event in this step. Times are
// multiplied by it and rates divided. The values as measured are
// per-layer metrics (loadgen.closed_events_per_s, loadgen.mid_p50_ms,
// node.cpu_us_per_event) and go to the log of every run. Set-up has no
// generator running and stays as measured. README.md has the
// measurements this rests on.
func (r *runner) endToEnd(t *timeline, setup time.Duration) map[string]float64 {
	var openEvents float64
	for _, ph := range []*phase{t.lo, t.mid, t.hi} {
		openEvents += float64(ph.events)
	}
	t.selfClosedUS = ratio(us(t.sClosed.selfCPU-t.s0.selfCPU), float64(t.closed.events))
	t.selfOpenUS = ratio(us(t.sHi.selfCPU-t.sClosed.selfCPU), openEvents)
	t.speedClosed = ratio(r.sp.refSelf[0], t.selfClosedUS)
	t.speedOpen = ratio(r.sp.refSelf[1], t.selfOpenUS)

	t.rawRate = ratio(float64(t.closed.events), t.closed.wall.Seconds())
	t.rawP50 = ms(t.mid.p(0.50))
	t.rawDaemonCPU = ratio(us(t.sHi.nodeCPU+t.sHi.rtrCPU-t.sClosed.nodeCPU-t.sClosed.rtrCPU), openEvents)
	raw, _ := json.Marshal(map[string]any{
		"workload": r.sp.name, "seed": r.seed,
		"events_per_s": t.rawRate, "p50_ms": t.rawP50, "cpu_us_per_event": t.rawDaemonCPU,
		"closed_host_speed": t.speedClosed, "host_speed": t.speedOpen,
		"generator_closed_cpu_us_per_event": t.selfClosedUS, "generator_cpu_us_per_event": t.selfOpenUS,
	})
	fmt.Fprintf(r.log, "  as measured, before stating at the definition box's speed: %s\n", raw)
	return map[string]float64{
		"setup_s":          setup.Seconds(),
		"events_per_s":     ratio(t.rawRate, t.speedClosed),
		"p50_ms":           t.rawP50 * t.speedOpen,
		"cpu_us_per_event": t.rawDaemonCPU * t.speedOpen,
	}
}

// invariants checks what the workload's definition promises about the
// traffic: who hit the memo, who hit the ledger, who touched the disk.
func (r *runner) invariants(t *timeline) []string {
	var out []string
	before, after := t.s0.nodes, t.sHi.nodes
	retransmits, retried := 0, 0
	for _, ph := range t.measured() {
		retransmits += ph.retransmits
		retried += ph.retried
	}
	// A request retransmitted after a 5xx is answered by the ledger when
	// its first attempt got as far as a stored result, and classified
	// afresh when not, so each may add one dedup hit or none.
	if got := int(delta(before, after, `longtail_requests_total{result="dedup"}`)); got < retransmits || got > retransmits+retried {
		out = append(out, fmt.Sprintf("ledger answered %d retransmits, %d were sent (and %d requests retried after a 5xx)", got, retransmits, retried))
	}
	for _, name := range []string{`longtail_requests_total{result="deferred"}`, `longtail_requests_total{result="rejected"}`, `longtail_requests_total{result="bad"}`, "longtail_extract_errors_total", "longtail_shed_expired_total"} {
		if got := delta(before, after, name); got != 0 {
			out = append(out, fmt.Sprintf("%s rose by %v", name, got))
		}
	}
	hit := ratio(delta(before, after, "longtail_memo_hits_total"), delta(before, after, "longtail_events_total"))
	switch {
	case r.sp.hotShare == 0 && hit >= 0.05:
		out = append(out, fmt.Sprintf("memo hit ratio %.3f on a fresh-key workload", hit))
	case r.sp.hotShare > 0 && (hit < r.sp.hotShare-0.05 || hit > r.sp.hotShare+0.05):
		out = append(out, fmt.Sprintf("memo hit ratio %.3f, hot share is %.2f", hit, r.sp.hotShare))
	}
	if !r.sp.journal {
		for name, v := range after {
			//lint:allow metricdrift the prefix of the documented longtail_journal_* family, not a metric name of its own
			if strings.HasPrefix(name, "longtail_journal_") && v != 0 {
				out = append(out, fmt.Sprintf("%s = %v on a stateless node", name, v))
			}
		}
	}
	return out
}

// render keeps the metrics BENCHMARK.json lists for this mode, with the
// units it gives them, and fails on one the run did not measure.
func render(res *result, values map[string]float64, defs []metricDef) error {
	res.Metrics = map[string]metricValue{}
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok {
			return fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	return nil
}
