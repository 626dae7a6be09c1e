package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouterRefusesDeclaredOversizeBody: the router reads /classify and
// /admin/reload bodies whole before it forwards them, so it applies the
// replicas' cap itself — 413, and nothing reaches a replica.
func TestRouterRefusesDeclaredOversizeBody(t *testing.T) {
	replica := newFakeReplica(t)
	h := newTestRouter(t, []*fakeReplica{replica}, nil).Handler()
	for _, path := range []string{"/classify", "/admin/reload"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("0123456789"))
		req.ContentLength = 1 << 40
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
	}
	if n := replica.classifiedCount(); n != 0 {
		t.Errorf("replica classified %d batches from refused requests", n)
	}
}
