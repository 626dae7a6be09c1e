package lifecycle

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/serve"
)

// TestPromotionClearsDegraded is the satellite recovery contract: a
// failed /admin/reload leaves the node serving its old generation in
// degraded mode, and a subsequent lifecycle promotion — which rides the
// same reload path — both bumps the generation and clears
// longtail_degraded.
func TestPromotionClearsDegraded(t *testing.T) {
	f := sharedFixture(t)
	engine, err := serve.NewEngine(f.ex, f.champion, serve.EngineConfig{Shards: 2, QueueSize: 256}, &serve.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)

	e := newEval(t, f, storeTruth(f))
	engine.SetBatchTap(e.Tap())

	srv, err := serve.NewServer(engine, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	e.Register(srv.Registry())
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	// Break the node: a garbage rule set through /admin/reload.
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", strings.NewReader("not rules"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage reload = %s, want 400", resp.Status)
	}
	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "degraded" {
		t.Fatalf("health after bad reload = %v, want degraded", health["status"])
	}
	metrics, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "longtail_degraded 1") {
		t.Fatal("longtail_degraded not raised after failed reload")
	}

	// Serve live traffic through the engine so the evaluator shadows it.
	m, err := NewManager(Config{MinShadowSamples: 50, FPBudget: 0.05}, ReloadPromoter{Client: client}, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginShadow(f.champion); err != nil {
		t.Fatal(err)
	}
	const batch = 64
	for lo := 0; lo < len(f.replay); lo += batch {
		hi := lo + batch
		if hi > len(f.replay) {
			hi = len(f.replay)
		}
		if _, err := engine.ClassifyBatch(ctx, f.replay[lo:hi]); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}

	st, err := m.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatePromoted {
		t.Fatalf("state = %v, want promoted (stats %+v)", st, m.Aggregate())
	}

	// Promotion converged the node: new generation, degraded cleared,
	// shadow metrics exposed on the same /metrics surface.
	health, err = client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("health after promotion = %v, want ok", health["status"])
	}
	if gen := health["generation"].(float64); gen != 2 {
		t.Fatalf("generation after promotion = %v, want 2", gen)
	}
	metrics, err = client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "longtail_degraded 0") {
		t.Fatal("longtail_degraded still raised after promotion")
	}
	if !strings.Contains(metrics, "longtail_shadow_samples_total") {
		t.Fatal("lifecycle exposition block missing from /metrics")
	}

	// Verdicts served after promotion carry the new generation.
	verdicts, err := engine.ClassifyBatch(ctx, f.replay[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if v.Generation != 2 {
			t.Fatalf("post-promotion verdict generation = %d, want 2", v.Generation)
		}
	}
}
