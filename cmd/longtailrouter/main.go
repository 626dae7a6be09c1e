// Command longtailrouter is the cluster front tier: it owns a
// consistent-hash ring over longtaild replicas and forwards /classify
// batches to the replica owning each request ID, with per-node circuit
// breakers, failover to ring successors, active health probing,
// and generation-consistent rule distribution.
//
// The router speaks the same wire protocol as a single replica —
// POST /classify, GET /result, POST /admin/reload, GET /healthz,
// GET /metrics — so clients built against longtaild (cmd/loadgen,
// serve.Client) point at a router unchanged. Router-only endpoints:
// POST /admin/join?addr=H:P and POST /admin/leave?addr=H:P for
// membership changes (a leaving replica drains in-flight batches before
// it is forgotten).
//
// Usage:
//
//	longtailrouter -replicas 127.0.0.1:8787,127.0.0.1:8788,127.0.0.1:8789
//	               [-addr :8780] [-probe-interval 2s] [-probe-timeout 1s]
//	               [-eject-after 3] [-breaker-threshold 3] [-breaker-reset 2s]
//	               [-vnodes 64] [-drain 10s]
//
// Exactly-once across failover rides on the replicas' verdict ledgers:
// the router forwards each batch's X-Request-Id unchanged and pins
// served IDs to the replica that answered, so a retransmit — client
// retry, failover retry, or crash-restart replay — is answered
// byte-identically from that replica's journal, never re-classified.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "longtailrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8780", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica addresses (host:port), e.g. 127.0.0.1:8787,127.0.0.1:8788")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "active health-probe period (0: probing off)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe timeout")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failed probes before a replica is ejected from the ring")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive forward failures tripping a replica's circuit breaker")
	breakerReset := flag.Duration("breaker-reset", 2*time.Second, "breaker open period before a half-open probe")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per replica on the hash ring")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	flag.Parse()

	if *replicas == "" {
		return fmt.Errorf("-replicas is required")
	}
	addrs := strings.Split(*replicas, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	rt, err := cluster.NewRouter(cluster.Options{
		Replicas:         addrs,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		EjectAfter:       *ejectAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerReset:     *breakerReset,
		VirtualNodes:     *vnodes,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		st := rt.Status()
		log.Printf("longtailrouter: serving on %s (%d replicas, generation %d, status %s)",
			*addr, len(st.Nodes), st.Generation, st.Status)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("longtailrouter: draining (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("longtailrouter: drained, bye")
	return nil
}
