package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// workRoot is where builds, journals and span files go: inside the
// checkout the command runs from, and named in .gitignore. The
// package's tests point it at a temporary directory.
var workRoot = ".bench_work"

// lockedBuffer collects a child's output while it is still running.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer // guarded by mu
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one child daemon.
type proc struct {
	name string
	addr string // host:port it listens on
	cmd  *exec.Cmd
	out  lockedBuffer
	done chan struct{} // closed once the process has been waited for
	err  error         // its exit status; read after done
}

func (p *proc) url() string { return "http://" + p.addr }
func (p *proc) pid() int    { return p.cmd.Process.Pid }

// exited reports whether the child has ended, with its log.
func (p *proc) exited() error {
	select {
	case <-p.done:
		if p.err == nil {
			return fmt.Errorf("%s exited early with status 0; its output:\n%s", p.name, p.out.String())
		}
		return fmt.Errorf("%s exited early: %w; its output:\n%s", p.name, p.err, p.out.String())
	default:
		return nil
	}
}

// stop kills the child and waits until it is gone.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	<-p.done
}

func startProc(name, bin, addr string, args ...string) (*proc, error) {
	p := &proc{name: name, addr: addr, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// freeAddr finds a loopback port nobody holds by binding port 0.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// buildBinaries compiles the two daemons from the checkout's source.
// The go tool relinks only what changed, so the directory is kept
// between runs.
func buildBinaries(ctx context.Context) (daemon, router string, err error) {
	bin, err := filepath.Abs(filepath.Join(workRoot, "bin"))
	if err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/longtaild", "./cmd/longtailrouter")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build: %w\n%s", err, out)
	}
	return filepath.Join(bin, "longtaild"), filepath.Join(bin, "longtailrouter"), nil
}

// deployment is what a workload runs against: real child processes in
// a benchmark run, in-process servers in the package's own tests.
type deployment struct {
	target    string   // base URL the load is aimed at
	nodeURLs  []string // every longtaild, for /metrics
	routerURL string   // "" without a router
	nodePIDs  []int
	routerPID int          // 0 without a router
	dead      func() error // reports a daemon that has exited
	stop      func()       // ends every process and removes its files
}

func (d *deployment) pids() []int {
	if d.routerPID != 0 {
		return append(append([]int(nil), d.nodePIDs...), d.routerPID)
	}
	return d.nodePIDs
}

// procSet is the child processes of one run.
type procSet struct {
	dir    string // this run's scratch directory (journals)
	nodes  []*proc
	router *proc // nil without a router
}

func (ps *procSet) all() []*proc {
	if ps.router != nil {
		return append(append([]*proc(nil), ps.nodes...), ps.router)
	}
	return ps.nodes
}

// stop kills every child and removes the journals (hundreds of MB per
// journaled run).
func (ps *procSet) stop() {
	for _, p := range ps.all() {
		p.stop()
	}
	os.RemoveAll(ps.dir)
}

// firstExit returns the first child found dead, so a crash fails the
// run with the daemon's log and not with a hang or a bare EOF.
func (ps *procSet) firstExit() error {
	for _, p := range ps.all() {
		if err := p.exited(); err != nil {
			return err
		}
	}
	return nil
}

func (ps *procSet) deployment() *deployment {
	d := &deployment{target: ps.nodes[0].url(), dead: ps.firstExit, stop: ps.stop}
	for _, n := range ps.nodes {
		d.nodeURLs = append(d.nodeURLs, n.url())
		d.nodePIDs = append(d.nodePIDs, n.pid())
	}
	if ps.router != nil {
		d.target, d.routerURL, d.routerPID = ps.router.url(), ps.router.url(), ps.router.pid()
	}
	return d
}

// boot starts the workload's processes with the pinned flags and waits
// until every one answers /healthz. Nodes come first: the router probes
// its replicas once at start.
func boot(ctx context.Context, sp spec, daemonBin, routerBin string) (d *deployment, err error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, err
	}
	ps := &procSet{dir: dir}
	defer func() {
		if err != nil {
			ps.stop()
		}
	}()
	for i := 0; i < sp.nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr,
			"-shards", fmt.Sprint(engineShards), "-queue", fmt.Sprint(engineQueue)}
		if sp.journal {
			args = append(args, "-journal-dir", filepath.Join(dir, fmt.Sprintf("journal-%d", i)),
				"-journal-shards", fmt.Sprint(journalShards), "-result-retention", fmt.Sprint(resultRetention))
		}
		p, err := startProc(fmt.Sprintf("longtaild[%d]", i), daemonBin, addr, args...)
		if err != nil {
			return nil, err
		}
		ps.nodes = append(ps.nodes, p)
	}
	if err := ps.waitHealthy(ctx, ps.nodes); err != nil {
		return nil, err
	}
	if sp.router {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		var replicas []string
		for _, n := range ps.nodes {
			replicas = append(replicas, n.addr)
		}
		ps.router, err = startProc("longtailrouter", routerBin, addr, "-addr", addr, "-replicas", strings.Join(replicas, ","))
		if err != nil {
			return nil, err
		}
		if err := ps.waitHealthy(ctx, []*proc{ps.router}); err != nil {
			return nil, err
		}
	}
	return ps.deployment(), nil
}

// bootTimeout bounds the wait for /healthz; a daemon generates its
// corpus first, a couple of seconds each on two cores.
const bootTimeout = 90 * time.Second

func (ps *procSet) waitHealthy(ctx context.Context, procs []*proc) error {
	ctx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for _, p := range procs {
		c := newClient(p.url(), false)
		for !healthy(ctx, c) {
			if err := p.exited(); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s not healthy: %w; its output:\n%s", p.name, ctx.Err(), p.out.String())
			case <-tick.C:
			}
		}
	}
	return nil
}
