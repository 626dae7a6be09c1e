package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
)

// inProcess deploys a workload's topology as httptest servers in this
// process, over the test's small world: the same handlers the daemons
// serve, without the processes.
func inProcess(t *testing.T) func(w *world, sp spec) (*deployment, error) {
	return func(w *world, sp spec) (*deployment, error) {
		d := &deployment{dead: func() error { return nil }}
		var closers []func()
		var addrs []string
		for i := 0; i < sp.nodes; i++ {
			dir := ""
			if sp.journal {
				dir = t.TempDir()
			}
			st, err := newStack(w, dir)
			if err != nil {
				return nil, err
			}
			ts := httptest.NewServer(st.handler)
			closers = append(closers, ts.Close, st.close)
			u, err := url.Parse(ts.URL)
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, u.Host)
			d.nodeURLs = append(d.nodeURLs, ts.URL)
			d.nodePIDs = append(d.nodePIDs, os.Getpid())
		}
		d.target = d.nodeURLs[0]
		if sp.router {
			rt, err := newRouter(addrs)
			if err != nil {
				return nil, err
			}
			ts := httptest.NewServer(routerHandler(rt))
			// The router goes first: it still holds connections to the nodes.
			closers = append([]func(){ts.Close, rt.Close}, closers...)
			d.target, d.routerURL, d.routerPID = ts.URL, ts.URL, os.Getpid()
		}
		d.stop = func() {
			for _, c := range closers {
				c()
			}
		}
		return d, nil
	}
}

// TestSmokeEveryMetricAppears runs each workload for about a second all told,
// traced, against in-process servers and checks that the run measures
// every metric BENCHMARK.json names, in both modes' lists, without a
// failed request.
func TestSmokeEveryMetricAppears(t *testing.T) {
	mf, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(specs))
	}
	w := smallWorld(t)
	old := workRoot
	workRoot = t.TempDir()
	defer func() { workRoot = old }()
	for _, wl := range mf.Workloads {
		sp := mustSpec(t, wl.Name)
		// BENCHMARK.json may hold only a name and a reason per workload, so
		// the reason is where it states the frozen rates.
		if rates := fmt.Sprintf("%g/%g/%g req/s", sp.rates[0], sp.rates[1], sp.rates[2]); !strings.Contains(wl.Why, rates) {
			t.Errorf("BENCHMARK.json does not state %s's rates, %s", sp.name, rates)
		}
		// Under the race detector bulk_stateless's 1,024-event batches make
		// the 64-batch verify pass alone take seconds; the metric names do
		// not depend on the batch size.
		sp.batch = min(sp.batch, 256)
		t.Run(sp.name, func(t *testing.T) {
			r := &runner{sp: sp, seed: 1, seconds: 0.5, traced: true, callers: 2, conns: 4, log: io.Discard,
				scale: testScale, prebuilt: w, deploy: inProcess(t)}
			res, values, err := r.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
			}
			for _, defs := range [][]metricDef{mf.EndToEnd, mf.PerLayer} {
				if err := render(res, values, defs); err != nil {
					t.Error(err)
				}
				for name, mv := range res.Metrics {
					if mv.Unit == "" {
						t.Errorf("metric %s has no unit", name)
					}
				}
			}
			listed := map[string]bool{}
			for _, def := range append(append([]metricDef(nil), mf.EndToEnd...), mf.PerLayer...) {
				listed[def.Name] = true
			}
			for name := range values {
				if !listed[name] {
					t.Errorf("the run measures %s, which BENCHMARK.json does not list", name)
				}
			}
			if _, err := os.Stat(workRoot + "/spans-" + sp.name + ".jsonl"); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
