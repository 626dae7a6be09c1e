package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/serve"
)

// Handler returns the router's HTTP surface: seven routes. /classify,
// /admin/reload, /healthz and /metrics answer as a single replica's do,
// so serve.Client and cmd/loadgen point at a router unchanged;
// /admin/lifecycle aggregates the replicas'; /admin/join and
// /admin/leave are router-only. There is no /result: a replica's 202 is
// resolved by the forward (serve.Client.ClassifyRaw polls the replica
// that accepted), so the router never hands one to a client.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", postOnly(rt.handleClassify))
	mux.HandleFunc("/admin/reload", postOnly(rt.handleReload))
	mux.HandleFunc("/admin/join", postOnly(rt.handleJoin))
	mux.HandleFunc("/admin/lifecycle", rt.handleLifecycle)
	mux.HandleFunc("/admin/leave", postOnly(rt.handleLeave))
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// postOnly answers anything but a POST with 405.
func postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// readBody reads a request body under the nodes' own cap (a batch no
// replica could accept is refused here, 413) and answers the failure
// itself.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := serve.ReadBody(w, r)
	if err != nil {
		http.Error(w, "read body: "+err.Error(), serve.BodyErrorStatus(err))
		return nil, false
	}
	return body, true
}

func (rt *Router) handleClassify(w http.ResponseWriter, r *http.Request) {
	// The header first, as the node reads it: refused before the body is read.
	timeout, err := serve.ParseTimeout(r.Header.Get(serve.TimeoutHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	id := r.Header.Get(serve.RequestIDHeader)
	if id == "" {
		id = rt.NextRequestID()
	}
	ctx := r.Context()
	if timeout > 0 {
		// Propagate the client's deadline: the router gives up when the
		// client would, and forwards the same budget to the replica so it
		// can shed work nobody is waiting for.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	data, replyType, err := rt.ForwardTyped(ctx, id, r.Header.Get("Content-Type"), body, timeout)
	if err != nil {
		writeForwardError(w, err)
		return
	}
	w.Header().Set(serve.RequestIDHeader, id)
	if replyType != "" {
		w.Header().Set("Content-Type", replyType)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data))) // as the node declares it: one buffer at the reader, no chunking
	w.Write(data)
}

// writeForwardError maps forward-path failures onto the wire contract
// clients already retry against: 503 (retryable) for availability
// problems, the replica's own refusal for permanent ones.
func writeForwardError(w http.ResponseWriter, err error) {
	var refused *serve.StatusError
	switch {
	case errors.As(err, &refused): // a 413 says "split the batch", a 400 "fix the bytes"
		http.Error(w, err.Error(), refused.Code)
	case errors.Is(err, ErrNoReplica), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	rules, ok := readBody(w, r)
	if !ok {
		return
	}
	gen, err := rt.Reload(r.Context(), rules)
	if err != nil {
		// 409, not 5xx: a client retry would fan out again and bump every
		// reachable replica's generation without fixing the partition.
		// The prober owns convergence from here.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"generation": gen})
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	if err := rt.Join(addr); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	// The grown ring remaps key ranges to the joiner the moment Join
	// rebuilds it; pull their ledger history over before answering so a
	// retransmit of a remapped ID finds its verdict on the new owner.
	// Best-effort: a failed rebalance leaves incumbents authoritative
	// (sticky pins unchanged) and a non-zero pending gauge.
	err := rt.Rebalance(r.Context(), addr)
	json.NewEncoder(w).Encode(map[string]any{"joined": addr, "rebalanced": err == nil})
}

func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		http.Error(w, "missing addr", http.StatusBadRequest)
		return
	}
	if err := rt.Leave(r.Context(), addr); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"left": addr})
}

// handleLifecycle aggregates the replicas' /admin/lifecycle status
// documents into one cluster view, alongside the router's own
// generation convergence — the operator's single read on "where is the
// challenger, fleet-wide". Promotion itself does not route through
// here: a cluster-scoped lifecycle manager promotes via the router's
// /admin/reload, whose generation-consistent fan-out is the only write
// path into serving.
func (rt *Router) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := rt.Status()
	perNode := make(map[string]any, len(st.Nodes))
	for _, n := range rt.nodeList() {
		status, err := n.client.Lifecycle(r.Context())
		if err != nil {
			// A replica without -lifecycle (404) or unreachable: report the
			// error in place so the aggregate stays total over membership.
			perNode[n.addr] = map[string]any{"error": err.Error()}
			continue
		}
		perNode[n.addr] = status
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation":       st.Generation,
		"targetGeneration": st.TargetGeneration,
		"status":           st.Status,
		"nodes":            perNode,
	})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.Status()
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := rt.Status()
	m := &rt.metrics
	fmt.Fprintf(w, "longtail_router_requests_total %d\n", m.Requests.Load())
	fmt.Fprintf(w, "longtail_router_forwarded_total %d\n", m.Forwarded.Load())
	fmt.Fprintf(w, "longtail_failover_total %d\n", m.Failover.Load())
	fmt.Fprintf(w, "longtail_router_no_replica_total %d\n", m.NoReplica.Load())
	fmt.Fprintf(w, "longtail_router_reloads_total %d\n", m.Reloads.Load())
	fmt.Fprintf(w, "longtail_router_reload_failures_total %d\n", m.ReloadErr.Load())
	fmt.Fprintf(w, "longtail_router_generation %d\n", st.Generation)
	fmt.Fprintf(w, "longtail_router_target_generation %d\n", st.TargetGeneration)
	degraded := 0
	if st.Status != "ok" {
		degraded = 1
	}
	fmt.Fprintf(w, "longtail_router_degraded %d\n", degraded)
	fmt.Fprintf(w, "longtail_handoff_chunks_total %d\n", m.HandoffChunks.Load())
	fmt.Fprintf(w, "longtail_handoff_entries_total %d\n", m.HandoffEntries.Load())
	fmt.Fprintf(w, "longtail_handoff_replayed_total %d\n", m.HandoffReplayed.Load())
	fmt.Fprintf(w, "longtail_handoff_failures_total %d\n", m.HandoffFails.Load())
	for _, n := range st.Nodes {
		// Every state is exported as a 0/1 gauge per node so dashboards
		// can plot transitions without discovering label values.
		for _, s := range nodeStateNames {
			v := 0
			if n.State == s {
				v = 1
			}
			fmt.Fprintf(w, "longtail_node_state{node=%q,state=%q} %d\n", n.Addr, s, v)
		}
		fmt.Fprintf(w, "longtail_node_generation{node=%q} %d\n", n.Addr, n.Generation)
		fmt.Fprintf(w, "longtail_node_served_total{node=%q} %d\n", n.Addr, n.Served)
		fmt.Fprintf(w, "longtail_node_failed_total{node=%q} %d\n", n.Addr, n.Failed)
		fmt.Fprintf(w, "longtail_node_inflight{node=%q} %d\n", n.Addr, n.Inflight)
		fmt.Fprintf(w, "longtail_probe_total{node=%q,outcome=\"ok\"} %d\n", n.Addr, n.ProbeOK)
		fmt.Fprintf(w, "longtail_probe_total{node=%q,outcome=\"error\"} %d\n", n.Addr, n.ProbeErr)
		for _, s := range []string{"closed", "open", "half-open"} {
			v := 0
			if n.Breaker == s {
				v = 1
			}
			fmt.Fprintf(w, "longtail_breaker_state{node=%q,state=%q} %d\n", n.Addr, s, v)
		}
		fmt.Fprintf(w, "longtail_breaker_trips_total{node=%q} %d\n", n.Addr, n.BreakerTrips)
		fmt.Fprintf(w, "longtail_handoff_pending{node=%q} %d\n", n.Addr, n.HandoffPending)
	}
	for _, n := range rt.nodeList() {
		n.forwardLatency.Write(w, "longtail_router_forward_latency_seconds", fmt.Sprintf("node=%q", n.addr))
	}
}
