// Command longtailrouter is the cluster front tier: it owns a
// consistent-hash ring over longtaild replicas and forwards /classify
// batches to the replica owning each request ID, with per-node circuit
// breakers, failover to ring successors, active health probing,
// and generation-consistent rule distribution.
//
// POST /classify, POST /admin/reload, GET /healthz and GET /metrics
// answer as a single replica's do, so clients built against longtaild
// (cmd/loadgen, serve.Client) point at a router unchanged; there is no
// GET /result, because the forward resolves a replica's 202 before the
// client hears anything. GET /admin/lifecycle aggregates the replicas'.
// Router-only endpoints: POST /admin/join?addr=H:P and
// POST /admin/leave?addr=H:P for membership changes (a leaving replica
// hands off its ledger and drains in-flight batches before it is
// forgotten).
//
// Usage:
//
//	longtailrouter -replicas 127.0.0.1:8787,127.0.0.1:8788,127.0.0.1:8789
//	               [-addr :8780] [-drain 10s] [-pprof localhost:6060]
//
// -pprof serves net/http/pprof on a side listener of its own, as
// longtaild's does: the debug endpoints never share the serving address.
//
// Probing (every 2s, 1s timeout, ejection after 3 consecutive failures),
// the breakers (3 failures, 2s reset) and the ring (64 virtual nodes per
// replica) run at cluster.Options' defaults.
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
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (DefaultServeMux only)
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
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty: off)")
	flag.Parse()

	if *replicas == "" {
		return fmt.Errorf("-replicas is required")
	}
	addrs := strings.Split(*replicas, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	rt, err := cluster.NewRouter(cluster.Options{Replicas: addrs, ProbeInterval: 2 * time.Second})
	if err != nil {
		return err
	}
	defer rt.Close()

	// Profiling stays off the serving listener: the debug endpoints are
	// unauthenticated and hold goroutines for seconds. The side listener
	// serves http.DefaultServeMux, where net/http/pprof registers, and
	// closes when run returns.
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		log.Printf("longtailrouter: pprof on http://%s/debug/pprof/", ln.Addr())
		pprofSrv := &http.Server{}
		pprofDone := make(chan struct{})
		go func() {
			defer close(pprofDone)
			if err := pprofSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("longtailrouter: pprof listener: %v", err)
			}
		}()
		defer func() {
			pprofSrv.Close()
			<-pprofDone
		}()
	}

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
