package faults

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func newLinkTransport(t *testing.T, cfg Config, base http.RoundTripper) *Transport {
	t.Helper()
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(inj, base)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTransportValidation(t *testing.T) {
	if _, err := NewTransport(nil, nil); err == nil {
		t.Error("nil injector accepted")
	}
}

func TestTransportDeterministicDropsAndRecovery(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	cfg := Config{Seed: 11, ErrorRate: 1, MaxConsecutiveFailures: 2, AckLossRate: 0}
	tr := newLinkTransport(t, cfg, nil)
	client := &http.Client{Transport: tr}

	do := func(id string) error {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/classify", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(DefaultIDHeader, id)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	// ErrorRate 1 with MaxConsecutiveFailures 2: every request key fails a
	// bounded streak, then the retransmit goes through.
	var failures int
	for attempt := 0; ; attempt++ {
		if attempt > 4 {
			t.Fatal("failure streak exceeded MaxConsecutiveFailures bound")
		}
		err := do("req-0001")
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("unexpected transport error: %v", err)
		}
		failures++
	}
	if failures == 0 || failures > 2 {
		t.Fatalf("failure streak = %d, want within [1, 2]", failures)
	}
	if served.Load() != 1 {
		t.Fatalf("server saw %d deliveries, want 1 (drops must not deliver)", served.Load())
	}

	// The same id on the same link replays the exact schedule: it is past
	// its streak now, so it succeeds first try.
	if err := do("req-0001"); err != nil {
		t.Fatalf("post-streak retransmit failed: %v", err)
	}

	keys, faulted := tr.Counts()
	if keys != 1 || faulted != 1 {
		t.Fatalf("Counts = (%d, %d), want (1, 1)", keys, faulted)
	}
}

func TestTransportAckLossDeliversThenLoses(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	cfg := Config{Seed: 3, ErrorRate: 1, MaxConsecutiveFailures: 1, AckLossRate: 1}
	tr := newLinkTransport(t, cfg, nil)

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/classify", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DefaultIDHeader, "req-ack")
	if _, err := tr.RoundTrip(req); !errors.Is(err, ErrInjected) {
		t.Fatalf("RoundTrip = %v, want injected ack loss", err)
	}
	// AckLossRate 1: the faulted attempt still delivered the request; only
	// the response was discarded.
	if served.Load() != 1 {
		t.Fatalf("server saw %d deliveries, want 1 (ack loss must deliver)", served.Load())
	}
	st := tr.Stats()
	if st.ResponsesLost != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 response lost, 0 dropped", st)
	}
}

func TestTransportPartitionCutsAllPaths(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	tr := newLinkTransport(t, Config{Seed: 1}, nil)
	host := srv.Listener.Addr().String()

	do := func(path, id string) error {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(DefaultIDHeader, id)
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	// Healthy link: data and control paths both pass (zero fault rates).
	if err := do("/classify", "req-1"); err != nil {
		t.Fatalf("pre-partition /classify: %v", err)
	}
	if err := do("/healthz", ""); err != nil {
		t.Fatalf("pre-partition /healthz: %v", err)
	}

	tr.Partition(host)
	if !tr.Partitioned(host) {
		t.Fatal("Partitioned = false after Partition")
	}
	// Partition refuses everything — including control-plane probes, which
	// is how the router's health machinery notices the cut.
	if err := do("/classify", "req-2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned /classify = %v, want refusal", err)
	}
	if err := do("/healthz", ""); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned /healthz = %v, want refusal", err)
	}

	tr.Heal(host)
	if err := do("/healthz", ""); err != nil {
		t.Fatalf("post-heal /healthz: %v", err)
	}
	if got := tr.Stats().PartitionRefusals; got != 2 {
		t.Fatalf("partition refusals = %d, want 2", got)
	}
}
