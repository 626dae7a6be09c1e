// Package chaoskit is what the serving chaos harnesses are written in:
// a cluster fixture (journaled nodes on real listeners, optionally a
// router in front and a fault-injecting transport on every link), the
// fault steps as plain methods on it (steps.go), and the exactly-once
// checkers that fill a harness's divergence counters (audit.go). A
// scenario is a straight-line function over these calls; see
// internal/experiments/*chaos_test.go, FuzzCluster in internal/serve
// and DESIGN.md "Chaos kit".
//
// The package must not import internal/experiments: the world a
// cluster serves (extractor, rule set, replay events, offline
// reference) comes in through Options.
package chaoskit

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/serve"
)

// Options describes the cluster to boot and the traffic it will carry.
type Options struct {
	// Dir is the root directory; replica i journals into Dir/replica-i.
	Dir      string
	Replicas int
	// Extractor and Rules are what every replica serves with.
	Extractor *features.Extractor
	Rules     *classify.Classifier
	// Faults, when set, puts a faults.Transport on every link into the
	// replicas and a faults.CrashFS under every replica's journal, so
	// Kill9 can discard what a replica had not fsynced.
	Faults *faults.Config
	// Router fronts the replicas with a cluster.Router; without it the
	// traffic goes to replica 0 directly.
	Router bool
	// Shards and CompactBytes configure every replica's ledger.
	Shards       int
	CompactBytes int64

	// Events is the replay, cut into batches of Batch events (default
	// 32); batch b travels under the request ID "<IDPrefix>-<b>" on every
	// transmit. Boot refuses a replay of fewer than MinBatches batches.
	Events     []dataset.DownloadEvent
	Batch      int
	MinBatches int
	IDPrefix   string
	// Offline is the reference: what a node serving clf must answer for ev.
	Offline func(clf *classify.Classifier, ev *dataset.DownloadEvent) (serve.VerdictRecord, error)
}

// Node is one replica: a longtaild equivalent (engine, journaled
// ledger, server) on a real listener.
type Node struct {
	// Name is the replica's address as the router, the ring and the fault
	// schedule see it: "replica-<i>", whatever port it listens on.
	Name   string
	Dir    string
	Engine *serve.Engine
	Ledger *serve.Ledger
	Server *serve.Server

	hsrv    *serve.Front
	fs      *faults.CrashFS
	stopped bool
}

// Cluster is the fixture. Traffic enters through Client; the fault
// steps and the checkers are its methods.
type Cluster struct {
	Nodes []*Node
	// Router is nil without Options.Router, Link nil without Options.Faults.
	Router *cluster.Router
	Link   *faults.Transport
	// Client is where traffic enters: the router's front, or replica 0
	// through Link.
	Client *serve.Client
	// Expect is the rule set the cluster should be serving, the one
	// Offline is asked about; WantGeneration, when non-zero, is the
	// generation every first response must carry.
	Expect         *classify.Classifier
	WantGeneration uint64
	Audit

	err   error // first harness failure; see Err
	opts  Options
	inj   *faults.Injector
	ctx   context.Context
	base  *serve.Link
	plain *http.Client // no injected faults, for Direct
	front *serve.Front
	first [][]byte // first response body per batch, nil until answered

	mu    sync.Mutex
	addrs map[string]string // replica name -> live listener; guarded by mu
}

// Boot starts the replicas, then the link transport and the router the
// options ask for.
//
// Replicas are addressed by name, never by host:port: the ring hashes
// member addresses and the fault schedule keys on the request's host,
// so with ephemeral ports in those strings ownership and the set of
// faulted requests would change from run to run at a fixed seed. The
// base transport's dialer resolves a name to the replica's current
// listener, which is also how a restart works: the name is re-pointed,
// no port is rebound.
func Boot(opts Options) (*Cluster, error) {
	if opts.Dir == "" || opts.Replicas < 1 {
		return nil, fmt.Errorf("chaoskit: need a directory and >= 1 replica (have %q, %d)", opts.Dir, opts.Replicas)
	}
	if opts.Batch <= 0 {
		opts.Batch = 32
	}
	opts.Shards = max(1, opts.Shards)
	c := &Cluster{
		Nodes:  make([]*Node, opts.Replicas),
		Expect: opts.Rules,
		opts:   opts,
		ctx:    context.Background(),
		addrs:  make(map[string]string),
	}
	if c.Batches() < max(1, opts.MinBatches) {
		return nil, fmt.Errorf("chaoskit: replay cuts into %d batches, the scenario needs >= %d", c.Batches(), max(1, opts.MinBatches))
	}
	c.first = make([][]byte, c.Batches())
	if opts.Faults != nil {
		inj, err := faults.NewInjector(*opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("chaoskit: %w", err)
		}
		c.inj = inj
	}
	for i := range c.Nodes {
		name := fmt.Sprintf("replica-%d", i)
		c.Nodes[i] = &Node{Name: name, Dir: filepath.Join(opts.Dir, name), stopped: true}
		if _, _, err := c.start(i, opts.Shards); err != nil {
			c.Close()
			return nil, fmt.Errorf("chaoskit: replica %d: %w", i, err)
		}
	}

	c.base = &serve.Link{Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
		live, err := c.resolve(addr)
		if err != nil {
			return nil, err
		}
		return new(net.Dialer).DialContext(ctx, network, live)
	}}
	c.plain = c.base.Client()
	linked := c.plain
	if c.inj != nil {
		link, err := faults.NewTransport(c.inj, c.base)
		if err != nil {
			c.Close()
			return nil, err
		}
		//lint:allow retrypolicy the kit wires the fault-injecting transport directly; serve.Client and the router supply the retry, breaker and failover layers above it
		c.Link, linked = link, &http.Client{Transport: link}
	}
	if !opts.Router {
		c.Client = &serve.Client{BaseURL: "http://" + c.Nodes[0].Name, HTTPClient: linked}
		return c, nil
	}
	names := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		names[i] = n.Name
	}
	rt, err := cluster.NewRouter(cluster.Options{
		Replicas:         names,
		HTTPClient:       linked,
		BreakerThreshold: 3,
		BreakerReset:     50 * time.Millisecond,
		ProbeInterval:    0, // probes are driven by Probe, for determinism
		ProbeTimeout:     time.Second,
		EjectAfter:       3,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.front = &serve.Front{Handler: rt.Handler()}
	rt.ServedBy(c.front)
	go c.front.Serve(ln)
	c.Client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: c.plain}
	return c, nil
}

// resolve maps "replica-i:80" to the replica's live listener; any other
// address (the router's front) passes through. A replica that is down
// has none: the port it listened on may be another process's by now.
func (c *Cluster) resolve(addr string) (string, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if live, ok := c.addrs[host]; ok && live == "" {
		return "", fmt.Errorf("chaoskit: %s is down", host)
	} else if ok {
		return live, nil
	}
	return addr, nil
}

// down marks n stopped, its name resolving to no listener.
func (c *Cluster) down(n *Node) {
	n.stopped = true
	c.mu.Lock()
	c.addrs[n.Name] = ""
	c.mu.Unlock()
}

// start boots replica i over whatever its journal directory holds and
// points its name at the new listener. It reports what the ledger
// recovered and how many pending batches were replayed.
func (c *Cluster) start(i, shards int) (*serve.LedgerRecovery, int, error) {
	n := c.Nodes[i]
	var open func(string) (journal.File, error)
	if n.fs = nil; c.inj != nil {
		fs, err := faults.NewCrashFS(c.inj)
		if err != nil {
			return nil, 0, err
		}
		n.fs, open = fs, func(path string) (journal.File, error) { return fs.Open(path) }
	}
	engine, err := serve.NewEngine(c.opts.Extractor, c.opts.Rules, serve.EngineConfig{}, &serve.Metrics{})
	if err != nil {
		return nil, 0, err
	}
	ledger, rec, err := serve.OpenLedger(serve.LedgerOptions{
		Journal:      journal.Options{Dir: n.Dir, OpenFile: open},
		Shards:       shards,
		CompactBytes: c.opts.CompactBytes,
	})
	if err != nil {
		engine.Close()
		return nil, 0, err
	}
	fail := func(err error) (*serve.LedgerRecovery, int, error) {
		engine.Close()
		ledger.Close()
		return nil, 0, err
	}
	replayed, err := serve.RecoverLedger(engine, ledger)
	if err != nil {
		return fail(err)
	}
	srv, err := serve.NewServer(engine, classify.Reject, serve.WithLedger(ledger))
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fail(err)
	}
	n.Engine, n.Ledger, n.Server, n.stopped = engine, ledger, srv, false
	n.hsrv = &serve.Front{Handler: srv.Handler()}
	srv.ServedBy(n.hsrv)
	go n.hsrv.Serve(ln)
	c.mu.Lock()
	c.addrs[n.Name] = ln.Addr().String()
	c.mu.Unlock()
	return rec, replayed, nil
}

// Stop shuts replica i down gracefully, ledger closed. It is a no-op
// for a replica already down (Kill9 included).
func (c *Cluster) Stop(i int) {
	n := c.Nodes[i]
	if n.stopped {
		return
	}
	c.down(n)
	n.hsrv.Close()
	n.Server.Close()
	n.Engine.Close()
	n.Ledger.Close()
}

// Close stops whatever is still running.
func (c *Cluster) Close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.Router != nil {
		c.Router.Close()
	}
	for i := range c.Nodes {
		c.Stop(i)
	}
	if c.base != nil {
		c.base.CloseIdleConnections()
	}
}

// Err is the first failure of the harness itself — a step that could
// not run, an expectation about the cluster's state that did not hold.
// The steps and checkers that can fail this way record it through Failf
// and turn into no-ops, so a scenario reads as a list of steps and
// checks Err once, at the end. What the cluster under test gets wrong
// in its answers is not an error: it goes to the Audit counters.
func (c *Cluster) Err() error { return c.err }

// Failf records a harness failure unless an earlier one is already
// held; scenarios report their own broken expectations through it.
func (c *Cluster) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Direct returns a single-attempt client for replica i that bypasses
// the router and the injected link faults.
func (c *Cluster) Direct(i int) *serve.Client {
	return &serve.Client{BaseURL: "http://" + c.Nodes[i].Name, HTTPClient: c.plain, Retry: retry.Policy{MaxAttempts: 1}}
}

// LinkReport is what the fault transport did to the links and how
// often the router had to fail over, in the harness reports' terms.
type LinkReport struct {
	LinkKeys, FaultedKeys                             int
	RequestsDropped, ResponsesLost, PartitionRefusals int64
	Failovers                                         uint64
}

// LinkReport snapshots the link counters.
func (c *Cluster) LinkReport() LinkReport {
	ts := c.Link.Stats()
	r := LinkReport{RequestsDropped: ts.Dropped, ResponsesLost: ts.ResponsesLost, PartitionRefusals: ts.PartitionRefusals}
	r.LinkKeys, r.FaultedKeys = c.Link.Counts()
	if c.Router != nil {
		r.Failovers = c.Router.Metrics().Failover.Load()
	}
	return r
}
