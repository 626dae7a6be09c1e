package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The world the daemons under test boot, loadgen replays and the test
// checks both against.
const (
	testSeed  = 42
	testScale = 0.002
	testTau   = 0.001
	testDrain = 5 * time.Second
)

// proc is one running binary with an HTTP surface. exited is closed once
// it has been reaped; only then are exitErr and log (its stderr)
// readable.
type proc struct {
	name    string
	addr    string
	cmd     *exec.Cmd
	client  *serve.Client
	log     bytes.Buffer
	exited  chan struct{}
	exitErr error
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// httpGet fetches url, requires the given status and returns the body.
func httpGet(t *testing.T, url string, status int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != status {
		t.Fatalf("GET %s = %d (%v), want %d", url, resp.StatusCode, err, status)
	}
	return string(body)
}

// start runs bin with -addr addr and args and returns once its /healthz
// answers. However the test ends, the process is killed and reaped, and
// a failed test gets its log.
func start(t *testing.T, bin, addr string, args ...string) *proc {
	t.Helper()
	p := &proc{
		name:   filepath.Base(bin),
		addr:   addr,
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		client: &serve.Client{BaseURL: "http://" + addr},
		exited: make(chan struct{}),
	}
	p.cmd.Stderr = &p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.exitErr = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
		if t.Failed() {
			t.Logf("%s %s log:\n%s", p.name, addr, p.log.String())
		}
	})
	// serve.Client.Health retries with backoff, but gives up long before
	// a cold daemon has generated its corpus.
	deadline := time.Now().Add(time.Minute)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := p.client.Health(ctx)
		cancel()
		if err == nil {
			return p
		}
		select {
		case <-p.exited:
			t.Fatalf("%s exited before serving: %v", p.name, p.exitErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not healthy after a minute: %v", p.name, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// wait returns the process's exit error, or fails if it is still
// running after limit.
func (p *proc) wait(t *testing.T, limit time.Duration) error {
	t.Helper()
	select {
	case <-p.exited:
		return p.exitErr
	case <-time.After(limit):
		t.Fatalf("%s still running %s after the signal", p.name, limit)
		return nil
	}
}

// TestRouterOverDaemons drives the three built binaries as a cluster:
// ID-carrying batches through the router to two journaled daemons
// (checked against the offline classifier), one daemon dead by SIGKILL
// and every ID retransmitted for the same bytes, a loadgen -router
// replay with its offline cross-check and cluster report, and a clean
// router exit on SIGTERM.
func TestRouterOverDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("builds longtaild, longtailrouter and loadgen and boots four processes")
	}
	bins := t.TempDir()
	bin := func(name string) string { return filepath.Join(bins, name) }
	for _, name := range []string{"longtaild", "longtailrouter", "loadgen"} {
		if out, err := exec.Command("go", "build", "-o", bin(name), "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	world := []string{"-seed", fmt.Sprint(testSeed), "-scale", fmt.Sprint(testScale), "-tau", fmt.Sprint(testTau)}
	w, err := experiments.BootServingWorld(synth.DefaultConfig(testSeed, testScale), testTau)
	if err != nil {
		t.Fatal(err)
	}
	const batches, batchSize = 8, 16
	if len(w.Replay) < batches*batchSize {
		t.Fatalf("replay month has %d events, need %d", len(w.Replay), batches*batchSize)
	}
	ctx := context.Background()

	daemons := make([]*proc, 2)
	for i := range daemons {
		daemons[i] = start(t, bin("longtaild"), freeAddr(t), append(world,
			"-journal-dir", t.TempDir(), "-journal-shards", "2", "-drain", testDrain.String())...)
	}
	pprofAddr := freeAddr(t)
	router := start(t, bin("longtailrouter"), freeAddr(t),
		"-replicas", daemons[0].addr+","+daemons[1].addr, "-drain", testDrain.String(), "-pprof", pprofAddr)
	// The -pprof side listener answers on its own address, and the
	// serving address knows nothing of /debug/pprof.
	if body := httpGet(t, "http://"+pprofAddr+"/debug/pprof/cmdline", http.StatusOK); !strings.Contains(body, "longtailrouter") {
		t.Fatalf("/debug/pprof/cmdline on the side listener = %q, want the router's command line", body)
	}
	httpGet(t, "http://"+router.addr+"/debug/pprof/cmdline", http.StatusNotFound)

	requestID := func(b int) string { return fmt.Sprintf("batch-%d", b) }
	requests := make([][]byte, batches)
	replies := make([][]byte, batches)
	for b := range requests {
		var want []byte
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			ev := &w.Replay[i]
			if requests[b], err = export.AppendEventLine(requests[b], ev); err != nil {
				t.Fatal(err)
			}
			requests[b] = append(requests[b], '\n')
			rec, err := w.Offline(w.Rules, ev)
			if err != nil {
				t.Fatal(err)
			}
			line, err := json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
		replies[b], _, err = router.client.ClassifyRaw(ctx, requestID(b), "", requests[b], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replies[b], want) {
			t.Fatalf("batch %d: routed verdicts differ from the offline classifier's\nrouted:  %s\noffline: %s", b, replies[b], want)
		}
	}

	// One daemon dies with its share of the ledger. Retransmits pinned to
	// it fail over and are classified again by the survivor — the same
	// world, so the same bytes.
	victim := daemons[0]
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	victim.wait(t, testDrain)
	for b := range requests {
		got, _, err := router.client.ClassifyRaw(ctx, requestID(b), "", requests[b], 0)
		if err != nil {
			t.Fatalf("batch %d: retransmit with %s dead: %v", b, victim.addr, err)
		}
		if !bytes.Equal(got, replies[b]) {
			t.Fatalf("batch %d: retransmit with %s dead is not byte-identical\nfirst: %s\nagain: %s", b, victim.addr, replies[b], got)
		}
	}

	// loadgen hot-reloads mid-replay, which the router refuses (409)
	// while a member in rotation cannot confirm: wait for the prober to
	// eject the dead daemon.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(100 * time.Millisecond) {
		h, err := router.client.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ejected := false
		nodes, _ := h["nodes"].([]any)
		for _, n := range nodes {
			m, _ := n.(map[string]any)
			ejected = ejected || m["addr"] == victim.addr && m["state"] == "ejected"
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router has not ejected %s a minute after its death: %v", victim.addr, h)
		}
	}
	out, err := exec.Command(bin("loadgen"), append(world,
		"-addr", "http://"+router.addr, "-router", "-noverify=false")...).CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen -router: %v\n%s", err, out)
	}
	for _, want := range []string{
		`router before replay: status ok, generation 1 \(target 0\)`,
		`router after replay: status ok, generation 2 \(target 2\)`,
		`node ` + regexp.QuoteMeta(victim.addr) + ` +ejected +generation 1`,
		`node ` + regexp.QuoteMeta(daemons[1].addr) + ` +healthy +generation 2`,
		`all \d+ streamed verdicts identical to offline classification`,
		`longtail_router_forwarded_total +\+[1-9]`,
		`longtail_router_reloads_total +\+1\n`,
		`longtail_router_no_replica_total +\+0\n`,
	} {
		if !regexp.MustCompile(want).Match(out) {
			t.Errorf("loadgen -router output has no match for %q", want)
		}
	}
	if t.Failed() {
		t.Logf("loadgen output:\n%s", out)
	}

	// The forward histogram times every exchange with a node, answered or
	// failed — the dead daemon's refused retransmits included.
	metrics, err := router.client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range daemons {
		series := func(name string) int {
			m := regexp.MustCompile(name + `\{node="` + regexp.QuoteMeta(d.addr) + `"\} (\d+)\n`).FindStringSubmatch(metrics)
			if m == nil {
				t.Fatalf("router /metrics has no %s for %s", name, d.addr)
			}
			n, _ := strconv.Atoi(m[1]) // matched as digits
			return n
		}
		timed, served, failed := series("longtail_router_forward_latency_seconds_count"), series("longtail_node_served_total"), series("longtail_node_failed_total")
		if timed == 0 || timed != served+failed {
			t.Errorf("%s: %d exchanges timed, %d served + %d failed", d.addr, timed, served, failed)
		}
	}

	if err := router.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := router.wait(t, testDrain); err != nil {
		t.Fatalf("router exit after SIGTERM: %v", err)
	}
	if !strings.Contains(router.log.String(), "drained, bye") {
		t.Errorf("router log does not end in a drain:\n%s", router.log.String())
	}
}
