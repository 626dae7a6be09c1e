package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/lifecycle"
	"repro/internal/serve"
	"repro/internal/synth"
)

// zeros is an endless body.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestLifecycleOversizeBodyRefused holds /admin/lifecycle to the cap
// every other server-side body is read under: a challenger one byte
// over it — declared by Content-Length, or delivered chunked with no
// length at all — is a 413, and the manager starts no shadow run.
func TestLifecycleOversizeBodyRefused(t *testing.T) {
	w, err := experiments.BootServingWorld(synth.DefaultConfig(testSeed, testScale), testTau)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := lifecycle.NewEvaluator(w.Extractor, storeTruth(w.Store))
	if err != nil {
		t.Fatal(err)
	}
	defer eval.Close()
	mgr, err := lifecycle.NewManager(lifecycle.Config{}, lifecycle.ReloadPromoter{Client: &serve.Client{}}, eval)
	if err != nil {
		t.Fatal(err)
	}
	h := lifecycleHandler(context.Background(), mgr, classify.Reject)
	post := func(body io.Reader, declared int64) int {
		req := httptest.NewRequest(http.MethodPost, "/admin/lifecycle", body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h(rec, req)
		return rec.Code
	}

	const over = journal.MaxRecordBytes + 1
	if code := post(strings.NewReader("0123456789"), over); code != http.StatusRequestEntityTooLarge {
		t.Errorf("Content-Length %d: status %d, want 413", over, code)
	}
	if code := post(io.LimitReader(zeros{}, over), -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d chunked bytes: status %d, want 413", over, code)
	}
	// A body under the cap that is not a rule set is the client's other
	// mistake, and keeps its own status.
	if code := post(strings.NewReader("not rules"), -1); code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", code)
	}
	if st := mgr.Status()["state"]; st != lifecycle.StateIdle.String() {
		t.Errorf("manager state %v after three refused challengers, want idle", st)
	}
}
