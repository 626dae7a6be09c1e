package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/journal"
)

// TestDeclaredOversizeBodyRefused sends ten bytes under a Content-Length
// of 1 TiB to every handler that reads a body. Each must answer 413
// and count the request as bad, without sizing a buffer from the
// declared length.
func TestDeclaredOversizeBodyRefused(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	ledger, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer ledger.Close()
	srv, err := NewServer(engine, classify.Reject, WithLedger(ledger))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	paths := []string{"/classify", "/admin/reload", "/admin/handoff/import"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, path := range paths {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("0123456789"))
		req.ContentLength = 1 << 40
		req.Header.Set(RequestIDHeader, "huge-1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
	}
	runtime.ReadMemStats(&after)
	// TotalAlloc is process-wide (engine workers, the race runtime), so
	// the bar is coarse: far less than one body at the cap, let alone the
	// terabyte the header declared.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxBodyBytes/4 {
		t.Errorf("refusing three oversized bodies allocated %d bytes", grew)
	}
	if bad := engine.Metrics().BadRequests.Load(); bad != uint64(len(paths)) {
		t.Errorf("bad requests = %d, want %d", bad, len(paths))
	}
	// A body that runs past the cap without declaring it surfaces as the
	// reader's own error.
	if got := BodyErrorStatus(&http.MaxBytesError{Limit: maxBodyBytes}); got != http.StatusRequestEntityTooLarge {
		t.Errorf("MaxBytesError status = %d, want 413", got)
	}
}

// TestReadBodySizedFromContentLength holds the router's reader to the
// node's: a declared length sizes the buffer once, and a body without
// one (or longer than it declared) is still read whole.
func TestReadBodySizedFromContentLength(t *testing.T) {
	payload := strings.Repeat("0123456789abcdef", 4096) // 64 KiB: io.ReadAll would regrow a dozen times
	for _, tc := range []struct {
		name     string
		declared int64
	}{
		{"declared", int64(len(payload))},
		{"undeclared", -1},
		{"understated", 10},
	} {
		req := httptest.NewRequest(http.MethodPost, "/classify", strings.NewReader(payload))
		req.ContentLength = tc.declared
		got, err := ReadBody(httptest.NewRecorder(), req)
		if err != nil || string(got) != payload {
			t.Fatalf("%s: read %d of %d bytes, err %v", tc.name, len(got), len(payload), err)
		}
		if tc.declared == int64(len(payload)) && cap(got) != len(payload) {
			t.Errorf("%s: buffer of %d bytes for a declared %d: not sized from Content-Length", tc.name, cap(got), len(payload))
		}
	}
}

// TestReadEventsBlankLines: a body of blank lines holds no events, and
// its decode buffer is sized by what the bytes could hold, not by its
// newlines — which would ask for 112 bytes of event per byte of body.
func TestReadEventsBlankLines(t *testing.T) {
	body := strings.Repeat("\n", 1<<20)
	req := httptest.NewRequest(http.MethodPost, "/classify", strings.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, wire, err := readEvents(req, false)
	runtime.ReadMemStats(&after)
	if err != nil || len(events) != 0 || wire != "" {
		t.Fatalf("readEvents = %d events, wire of %d bytes, err %v; want none of each", len(events), len(wire), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("decoding 1 MiB of blank lines allocated %d bytes", grew)
	}
}
