package cluster

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
)

// ErrNoReplica is returned by Forward when no replica is eligible for a
// request: every candidate is ejected, leaving, or breaker-open.
var ErrNoReplica = errors.New("cluster: no eligible replica")

// NodeState is the router's view of one replica's availability.
type NodeState int32

// Node states, in decreasing order of trust. Healthy nodes are the
// primary route tier; degraded nodes serve only when no healthy
// candidate remains; ejected and leaving nodes are out of the ring.
const (
	NodeHealthy NodeState = iota
	NodeDegraded
	NodeEjected
	NodeLeaving
)

// nodeStateNames is NodeState's lowercase names, indexed by state — also
// the full label domain of longtail_node_state.
var nodeStateNames = [...]string{"healthy", "degraded", "ejected", "leaving"}

// String returns the lowercase state name.
func (s NodeState) String() string {
	if s < 0 || int(s) >= len(nodeStateNames) {
		return fmt.Sprintf("state(%d)", int32(s))
	}
	return nodeStateNames[s]
}

// node is the router's per-replica record. All fields are either
// immutable after construction or atomic, and the table that holds the
// nodes is published like the ring: the data path never takes the
// router mutex.
type node struct {
	addr    string
	client  *serve.Client
	breaker *retry.Breaker

	state      atomic.Int32  // NodeState
	gen        atomic.Uint64 // last generation the replica reported
	probeFails atomic.Int32  // consecutive failed health probes
	inflight   atomic.Int64  // forwards in flight (drained on Leave)

	served         atomic.Uint64 // successful forwards answered by this node
	failed         atomic.Uint64 // forward attempts that errored on this node
	probeOK        atomic.Uint64
	probeErr       atomic.Uint64
	forwardLatency obs.Histogram // every exchange, answered or failed

	// handoffPending counts migrating ranges this node still owes (or is
	// owed): non-zero after a partial drain or while an ejected node's
	// on-disk ledger awaits reconciliation. Exposed as the
	// longtail_handoff_pending gauge.
	handoffPending atomic.Int64
	// needsReconcile marks a node that died (ejected) with undrained
	// ledger state; the first probation readmit triggers a reconcile pull
	// before the flag clears.
	needsReconcile atomic.Bool
}

func (n *node) State() NodeState { return NodeState(n.state.Load()) }

// inRotation reports whether the node is a ring member: ejected and
// leaving nodes are not.
func (n *node) inRotation() bool {
	st := n.State()
	return st != NodeEjected && st != NodeLeaving
}

// Options configures a Router. The zero value of every optional field
// selects a sensible default; Replicas is required.
type Options struct {
	// Replicas lists the replica addresses (host:port) forming the
	// initial ring.
	Replicas []string
	// HTTPClient is the shared transport for all replica links — the
	// decoration point for internal/faults.Transport. nil selects a
	// serve.Link of the router's own; Close closes its idle connections.
	HTTPClient *http.Client
	// Retry is the per-replica client policy: deferred-result polling,
	// reload fan-out, and a /classify attempt on an ID's pinned replica,
	// which retries in place under it (see attempt); an unpinned attempt
	// fails over to the next replica instead.
	Retry retry.Policy
	// BreakerThreshold and BreakerReset configure each node's circuit
	// breaker (defaults 3 consecutive failures, 2s reset).
	BreakerThreshold int
	BreakerReset     time.Duration
	// ProbeInterval is the active health-probe period; 0 disables the
	// background prober (ProbeAll can still be driven manually).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// EjectAfter is how many consecutive probe failures eject a replica
	// from the ring (default 3). Keep it above the fault injector's
	// MaxConsecutiveFailures or chaos runs eject nodes that were only
	// unlucky.
	EjectAfter int
}

// maxServedRoutes bounds the sticky request-ID route cache (FIFO
// eviction): one bound for the whole router, whatever the replica count,
// equal to one node ledger's default retention.
const maxServedRoutes = 65536

func (o Options) withDefaults() Options {
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerReset == 0 {
		o.BreakerReset = 2 * time.Second
	}
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = time.Second
	}
	if o.EjectAfter == 0 {
		o.EjectAfter = 3
	}
	if o.HTTPClient == nil {
		o.HTTPClient = new(serve.Link).Client()
	}
	return o
}

// Metrics is the router's counter set, mirrored into /metrics.
type Metrics struct {
	Requests  atomic.Uint64 // forwards attempted
	Forwarded atomic.Uint64 // forwards answered successfully
	Failover  atomic.Uint64 // extra attempts launched because one failed
	NoReplica atomic.Uint64 // forwards rejected: no eligible replica
	Reloads   atomic.Uint64
	ReloadErr atomic.Uint64

	// Handoff counters: chunks/entries durably acked by importers,
	// entries replayed out of a returned node's journal during
	// reconciliation, and handoff pushes that exhausted their retries.
	HandoffChunks   atomic.Uint64
	HandoffEntries  atomic.Uint64
	HandoffReplayed atomic.Uint64
	HandoffFails    atomic.Uint64
}

// Router fronts a replica set: consistent-hash ownership, per-node
// circuit breakers, failover along ring successors, active
// health probing, and generation-consistent rule distribution. The
// exactly-once story rides on the replicas' ledgers: every forward
// carries the client's X-Request-Id unchanged, and sticky routing pins
// retransmits of an accepted batch to the replica whose ledger holds
// the verdict.
type Router struct {
	opts    Options
	metrics Metrics
	// reg is what GET /metrics renders; front serves Handler (ServedBy).
	reg   obs.Registry
	front atomic.Pointer[serve.Front]

	// ring is the current consistent-hash ring (copy-on-write; nil never
	// stored). Readers never lock.
	ring atomic.Pointer[Ring]

	// nodes is the member table by address, copy-on-write like the ring:
	// Join and Leave replace it under mu, everyone reads it through
	// table() without.
	nodes atomic.Pointer[map[string]*node]

	mu sync.Mutex
	// advertisedGen is the rule generation the router vouches for: every
	// in-ring replica has confirmed it. Guarded by mu.
	advertisedGen uint64
	// targetGen is the highest generation any reload achieved anywhere;
	// advertisement lags it until the fleet converges. Guarded by mu.
	targetGen uint64
	// degradedReason is non-empty while advertisement is rolled back
	// (partial reload, divergent generations). Guarded by mu.
	degradedReason string
	// pendingRules is the last rule set handed to Reload, kept for
	// reconciling lagging or restarted replicas. Guarded by mu.
	pendingRules []byte

	routeMu sync.Mutex
	// routes pins request IDs to the replica that served them, so a
	// failover retransmit reaches the ledger that already holds the
	// verdict. Guarded by routeMu.
	routes map[string]stickyRoute
	// routeOrder is the FIFO eviction queue for routes. Guarded by routeMu.
	routeOrder []string

	drainMu   sync.Mutex
	drainCond *sync.Cond

	// idPrefix heads every request ID this router mints: "router-" plus
	// a nonce drawn at boot. The nodes' ledgers outlive a router, so a
	// counter alone would re-issue a previous boot's IDs and have a new
	// batch answered with an old one's verdicts.
	idPrefix  string
	seq       atomic.Uint64
	probeStop context.CancelFunc
	probeDone chan struct{}
}

// NewRouter builds a router over opts.Replicas and runs one synchronous
// probe round so the initial ring reflects reality; if every reachable
// replica agrees on a generation it is advertised immediately. When
// opts.ProbeInterval > 0 a background prober keeps membership current
// until Close.
func NewRouter(opts Options) (*Router, error) {
	o := opts.withDefaults()
	if len(o.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	var nonce [6]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("cluster: request-id nonce: %w", err)
	}
	rt := &Router{
		opts:     o,
		routes:   make(map[string]stickyRoute),
		idPrefix: fmt.Sprintf("router-%x", nonce),
	}
	rt.drainCond = sync.NewCond(&rt.drainMu)
	rt.register()
	nodes := make(map[string]*node, len(o.Replicas))
	for _, addr := range o.Replicas {
		n, err := rt.newNode(addr)
		if err != nil {
			return nil, err
		}
		nodes[addr] = n // NewRing below refuses a duplicate
	}
	rt.nodes.Store(&nodes)
	ring, err := NewRing(o.Replicas, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	rt.ring.Store(ring)

	ctx, cancel := context.WithTimeout(context.Background(), o.ProbeTimeout*time.Duration(1+len(o.Replicas)))
	rt.ProbeAll(ctx)
	cancel()

	if o.ProbeInterval > 0 {
		probeCtx, stop := context.WithCancel(context.Background())
		rt.probeStop = stop
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(probeCtx)
	}
	return rt, nil
}

func (rt *Router) newNode(addr string) (*node, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: empty replica address")
	}
	br, err := retry.NewBreaker(rt.opts.BreakerThreshold, rt.opts.BreakerReset, nil)
	if err != nil {
		return nil, err
	}
	return &node{
		addr: addr,
		client: &serve.Client{
			BaseURL:    "http://" + addr,
			HTTPClient: rt.opts.HTTPClient,
			Retry:      rt.opts.Retry,
		},
		breaker: br,
	}, nil
}

// table returns the current member table; callers do not modify it.
func (rt *Router) table() map[string]*node { return *rt.nodes.Load() }

// Close stops the background prober and closes idle replica connections.
func (rt *Router) Close() {
	if rt.probeStop != nil {
		rt.probeStop()
		<-rt.probeDone
	}
	rt.opts.HTTPClient.CloseIdleConnections()
}

// NextRequestID mints a request ID for a client that sent none, unique
// across router boots. Retransmit dedup only helps callers who hold an
// ID across retries, so clients that care supply their own.
func (rt *Router) NextRequestID() string {
	return fmt.Sprintf("%s-%06d", rt.idPrefix, rt.seq.Add(1))
}

// Metrics exposes the router counter set.
func (rt *Router) Metrics() *Metrics { return &rt.metrics }

// ServedBy names the Front serving Handler, for /metrics to report.
func (rt *Router) ServedBy(f *serve.Front) { rt.front.Store(f) }

// ForwardTyped routes one pre-marshaled /classify body to the replica
// owning id, failing over along ring successors on error, one attempt
// at a time: a second replica is asked only after the first has failed,
// never while it may still be classifying — two replicas working one ID
// are two authorities for it. Healthy nodes are tried first, degraded
// ones only when no healthy candidate remains; a node whose breaker
// refuses admission is skipped without an attempt. The first success
// wins; its replica is pinned in the sticky route cache so retransmits
// of id reach the same ledger.
//
// The wire format travels with the body: contentType is the client's
// Content-Type, sent to whichever replica is tried — first transmit,
// failover and sticky retransmit alike — and replyType is the
// Content-Type the answering replica gave data.
func (rt *Router) ForwardTyped(ctx context.Context, id, contentType string, body []byte, timeout time.Duration) (data []byte, replyType string, err error) {
	rt.metrics.Requests.Add(1)
	// A usable pin marks the one replica whose ledger holds id's
	// verdict. Its attempt retries transient failures in place (see
	// attempt) instead of failing over: rerouting a pinned ID forfeits
	// the ledger hit and has another replica classify the retransmit
	// fresh — duplicated work and a second authority for the same ID.
	stickyAddr := rt.stickyAddr(id)
	var firstErr error
	for _, n := range rt.candidatesFor(id, stickyAddr) {
		if n.breaker.Allow() != nil {
			continue // breaker-open: skip without an attempt
		}
		if firstErr != nil {
			rt.metrics.Failover.Add(1)
		}
		data, replyType, err := rt.attempt(ctx, n, id, contentType, body, timeout, n.addr == stickyAddr)
		switch {
		case err == nil:
			rt.metrics.Forwarded.Add(1)
			rt.recordRoute(id, n.addr)
			return data, replyType, nil
		case ctx.Err() != nil:
			return nil, "", ctx.Err()
		case retry.IsPermanent(err):
			// The replica answered and refused (4xx): another replica
			// would refuse the same bytes the same way.
			return nil, "", err
		case firstErr == nil:
			firstErr = err
		}
	}
	if firstErr == nil {
		rt.metrics.NoReplica.Add(1)
		return nil, "", ErrNoReplica
	}
	return nil, "", fmt.Errorf("cluster: all replicas failed: %w", firstErr)
}

// Forward is ForwardTyped for a line-JSON body.
func (rt *Router) Forward(ctx context.Context, id string, body []byte, timeout time.Duration) ([]byte, error) {
	data, _, err := rt.ForwardTyped(ctx, id, "", body, timeout)
	return data, err
}

// attempt runs one replica attempt in the breaker slot ForwardTyped's
// Allow took.
//
// A sticky attempt (the replica pinned as id's ledger authority)
// additionally retries transient failures in place, under the router's
// retry policy and cut short the moment the breaker opens: a flaky link
// to the pin is worth a few backoffs, because the failover Forward
// would fall back to reaches a replica without the verdict and
// classifies the retransmit fresh. A genuinely dead pin still fails
// over — its failures trip the breaker, whose refusal of the next slot
// ends the retries.
func (rt *Router) attempt(ctx context.Context, n *node, id, contentType string, body []byte, timeout time.Duration, sticky bool) (data []byte, replyType string, err error) {
	n.inflight.Add(1)
	defer func() {
		n.inflight.Add(-1)
		rt.drainCond.Broadcast()
	}()
	if !sticky {
		return rt.exchange(ctx, n, id, contentType, body, timeout)
	}
	// The pin looks dead once its breaker is open or refuses a slot: the
	// remaining candidates should have their chance. err, as the last
	// exchange left it, is the reason ForwardTyped reads — not Do's
	// wrapping of it.
	dead := retry.Permanent(retry.ErrOpen)
	held := true // ForwardTyped's slot; each retry asks for its own
	_ = retry.Do(ctx, rt.opts.Retry, func(ctx context.Context) error {
		if !held && n.breaker.Allow() != nil {
			return dead
		}
		held = false
		data, replyType, err = rt.exchange(ctx, n, id, contentType, body, timeout)
		if err != nil && n.breaker.State() == retry.BreakerOpen {
			return dead
		}
		return err
	})
	if held {
		// ctx ended before the first exchange; the slot still needs its
		// Record.
		err = ctx.Err()
		n.breaker.Record(err)
	}
	return data, replyType, err
}

// exchange sends the batch to n once and resolves the breaker slot the
// caller holds, or the single-probe half-open admission would wedge.
func (rt *Router) exchange(ctx context.Context, n *node, id, contentType string, body []byte, timeout time.Duration) (data []byte, replyType string, err error) {
	start := time.Now()
	data, replyType, err = n.client.ClassifyRaw(ctx, id, contentType, body, timeout)
	n.forwardLatency.Observe(time.Since(start))
	if err == nil {
		n.served.Add(1)
	} else if !retry.IsPermanent(err) {
		n.failed.Add(1)
	}
	n.record(err)
	return data, replyType, err
}

// record resolves the breaker slot an exchange with n ran in. Only
// availability failures count against the breaker: a replica healthy
// enough to refuse bad input (a permanent error) answered.
func (n *node) record(err error) {
	if retry.IsPermanent(err) {
		err = nil
	}
	n.breaker.Record(err)
}

// stickyRoute is one sticky-cache entry. A pinned entry (reconciling
// false) names the replica whose ledger holds the ID's verdict and is
// tried first. A reconciling entry is the per-ID half of the
// reconciliation window: the pinned replica died with the verdict
// possibly only on its disk, so the pin no longer confers authority —
// retransmits go to the current ring owner, which consults whatever
// history was imported ("replay") and classifies fresh only if the
// record truly never left the dead node ("reclassify"). The entry
// resolves back to pinned when any replica answers the ID or a
// reconcile/handoff re-pins it.
type stickyRoute struct {
	addr        string
	reconciling bool
}

// candidatesFor returns the attempt order for id: the sticky replica
// first while it is in rotation, on probation too (stickyAddr, which the
// caller looked up once for the whole forward; "" for none), then
// healthy ring successors, then degraded ones as a last resort. It reads
// the ring and the member table as published and takes no lock.
func (rt *Router) candidatesFor(id, stickyAddr string) []*node {
	succ := rt.ring.Load().Successors(id)
	nodes := rt.table()
	healthy := make([]*node, 0, len(succ))
	degraded := make([]*node, 0, 2)
	appendNode := func(addr string) {
		n := nodes[addr]
		if n == nil {
			return
		}
		switch n.State() {
		case NodeHealthy:
			healthy = append(healthy, n)
		case NodeDegraded:
			degraded = append(degraded, n)
		}
	}
	if n := nodes[stickyAddr]; n != nil && n.inRotation() {
		healthy = append(healthy, n)
	}
	for _, addr := range succ {
		if addr != stickyAddr {
			appendNode(addr)
		}
	}
	return append(healthy, degraded...)
}

// recordRoute pins id to the replica whose ledger now owns its verdict,
// resolving any reconciliation window for the ID. The cache is bounded:
// FIFO eviction at maxServedRoutes.
func (rt *Router) recordRoute(id, addr string) {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	if _, ok := rt.routes[id]; !ok {
		rt.routeOrder = append(rt.routeOrder, id)
		if len(rt.routeOrder) > maxServedRoutes {
			delete(rt.routes, rt.routeOrder[0])
			rt.routeOrder = rt.routeOrder[1:]
		}
	}
	rt.routes[id] = stickyRoute{addr: addr}
}

// stickyAddr returns the replica id is pinned to, or "" when it has no
// pin or the pin is in a reconciliation window — the one sticky lookup a
// forward makes.
func (rt *Router) stickyAddr(id string) string {
	if r, ok := rt.lookupRoute(id); ok && !r.reconciling {
		return r.addr
	}
	return ""
}

func (rt *Router) lookupRoute(id string) (stickyRoute, bool) {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	r, ok := rt.routes[id]
	return r, ok
}

// invalidateRoutes opens the reconciliation window for every sticky
// entry pinned to addr: the node left the ring (eject or leave) and a
// pin to it would steer retransmits at a corpse until capacity eviction
// aged it out. Entries flip in place rather than delete so the router
// remembers which IDs are in the window (reconcile re-pins them) and a
// later answer from any owner resolves them through recordRoute.
func (rt *Router) invalidateRoutes(addr string) {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	for id, r := range rt.routes {
		if r.addr == addr {
			rt.routes[id] = stickyRoute{addr: r.addr, reconciling: true}
		}
	}
}

// repinRoute points an existing sticky entry at the replica that now
// durably holds the ID (handoff ack or reconcile import), closing its
// reconciliation window. IDs absent from the cache are not added: the
// ring already routes them to the importer, and growing the cache here
// would let a large handoff evict genuinely hot pins.
func (rt *Router) repinRoute(id, addr string) {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	if _, ok := rt.routes[id]; ok {
		rt.routes[id] = stickyRoute{addr: addr}
	}
}
