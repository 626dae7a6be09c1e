package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The world the daemon under test boots and the test checks it against.
const (
	testSeed  = 42
	testScale = 0.002
	testTau   = 0.001
	testDrain = 5 * time.Second
)

// daemon is one running longtaild process. exited is closed once it has
// been reaped; only then are exitErr and log (its stderr) readable.
type daemon struct {
	cmd     *exec.Cmd
	client  *serve.Client
	log     bytes.Buffer
	exited  chan struct{}
	exitErr error
}

// buildDaemon compiles the package under test into the test's own
// directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "longtaild")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startTestWorld boots bin on the small test world with the journal in
// dir.
func startTestWorld(t *testing.T, bin, dir string) *daemon {
	t.Helper()
	return startDaemon(t, bin,
		"-seed", fmt.Sprint(testSeed), "-scale", fmt.Sprint(testScale), "-tau", fmt.Sprint(testTau),
		"-journal-dir", dir, "-journal-shards", "2")
}

// startDaemon boots bin with args on a free loopback port and returns
// once /healthz answers. However the test ends, the process is killed
// and reaped, and a failed test gets its log.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{
		cmd:    exec.Command(bin, append([]string{"-addr", addr, "-drain", testDrain.String()}, args...)...),
		client: &serve.Client{BaseURL: "http://" + addr},
		exited: make(chan struct{}),
	}
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
		if t.Failed() {
			t.Logf("longtaild %s log:\n%s", addr, d.log.String())
		}
	})
	// serve.Client.Health retries with backoff, but gives up long before
	// a cold daemon has generated its corpus.
	deadline := time.Now().Add(time.Minute)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := d.client.Health(ctx)
		cancel()
		if err == nil {
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("longtaild exited before serving: %v", d.exitErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("longtaild not healthy after a minute: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// wait returns the process's exit error, or fails if it is still
// running after limit.
func (d *daemon) wait(t *testing.T, limit time.Duration) error {
	t.Helper()
	select {
	case <-d.exited:
		return d.exitErr
	case <-time.After(limit):
		t.Fatalf("longtaild still running %s after the signal", limit)
		return nil
	}
}

// metric reads one integer series off /metrics.
func (d *daemon) metric(t *testing.T, name string) int {
	t.Helper()
	text, err := d.client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(text, name+" ")
	if !ok {
		t.Fatalf("/metrics has no %s line:\n%s", name, text)
	}
	var n int
	if _, err := fmt.Sscanf(rest, "%d\n", &n); err != nil {
		t.Fatalf("%s %.20q: %v", name, rest, err)
	}
	return n
}

// TestDaemonKillRestartTerm drives the built binary through the life
// the journal exists for: serve ID-carrying batches (checked against
// the offline classifier), die by SIGKILL, come back on the same
// directory and answer every retransmit from the ledger — the same
// bytes, no second classification — then leave cleanly on SIGTERM.
func TestDaemonKillRestartTerm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the longtaild binary twice")
	}
	bin := buildDaemon(t)
	w, err := experiments.BootServingWorld(synth.DefaultConfig(testSeed, testScale), testTau)
	if err != nil {
		t.Fatal(err)
	}
	const batches, batchSize = 4, 16
	if len(w.Replay) < batches*batchSize {
		t.Fatalf("replay month has %d events, need %d", len(w.Replay), batches*batchSize)
	}
	ctx := context.Background()
	journalDir := t.TempDir()
	d := startTestWorld(t, bin, journalDir)

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
		replies[b], _, err = d.client.ClassifyRaw(ctx, requestID(b), "", requests[b], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(replies[b], want) {
			t.Fatalf("batch %d: served verdicts differ from the offline classifier's\nserved:  %s\noffline: %s", b, replies[b], want)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.wait(t, testDrain)

	d = startTestWorld(t, bin, journalDir)
	for b := range requests {
		got, _, err := d.client.ClassifyRaw(ctx, requestID(b), "", requests[b], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, replies[b]) {
			t.Fatalf("batch %d: retransmit after kill -9 is not byte-identical\nfirst: %s\nagain: %s", b, replies[b], got)
		}
	}
	if n := d.metric(t, `longtail_requests_total{result="dedup"}`); n != batches {
		t.Fatalf("%d of %d retransmits were answered from the recovered ledger", n, batches)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(t, testDrain); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	// Both lives preallocated their segments; the killed one's were cut
	// at recovery and the graceful exit sealed its own, so no file is
	// larger than the frames it holds: recovery replays every byte.
	segments, err := filepath.Glob(filepath.Join(journalDir, "shard-*", "wal-*.seg"))
	if err != nil || len(segments) < 2 {
		t.Fatalf("journal segments under %s: %v, %v", journalDir, segments, err)
	}
	var size int64
	for _, path := range segments {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	j, rec, err := journal.OpenSharded(journal.Options{Dir: journalDir}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.LiveBytes() != size || rec.TornTail != 0 {
		t.Errorf("%d bytes of segments after a graceful exit: %d replayed as frames, %d torn", size, j.LiveBytes(), rec.TornTail)
	}
}

// batchOf renders events as a /classify body, with the reply the offline
// classifier says a daemon must serve for it.
func batchOf(t *testing.T, w *experiments.ServingWorld, events []dataset.DownloadEvent) (request, reply []byte) {
	t.Helper()
	for i := range events {
		var err error
		if request, err = export.AppendEventLine(request, &events[i]); err != nil {
			t.Fatal(err)
		}
		request = append(request, '\n')
		rec, err := w.Offline(w.Rules, &events[i])
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		reply = append(append(reply, line...), '\n')
	}
	return request, reply
}

// mustServe sends request under id and fails unless d answers with want.
func mustServe(t *testing.T, d *daemon, id string, request, want []byte) []byte {
	t.Helper()
	got, _, err := d.client.ClassifyRaw(context.Background(), id, "", request, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: served verdicts differ from the offline classifier's\nserved:  %s\noffline: %s", id, got, want)
	}
	return got
}

// TestDaemonIgnoresPoolContents: a recycled segment's earlier life is
// never read back as records. Before the daemon first boots, each shard
// of its journal gets a pool file holding a whole journal that
// serve.OpenLedger wrote for "poison" IDs, every one answered with a
// reply no classifier gives, so the daemon's first segments are those
// files. The IDs it serves all route to shard 0, which leaves shard 1's
// recycled segment holding the poison frames alone when the daemon is
// killed. After the restart the served IDs are dedup hits with their
// first bytes, and the poison IDs are classified afresh: under an
// unsalted CRC the poison frames would be valid records of their new
// segment, and the poison reply the ledger's answer.
func TestDaemonIgnoresPoolContents(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the longtaild binary twice")
	}
	bin := buildDaemon(t)
	w, err := experiments.BootServingWorld(synth.DefaultConfig(testSeed, testScale), testTau)
	if err != nil {
		t.Fatal(err)
	}
	const poisoned, served, batchSize = 8, 3, 4
	poisonID := func(i int) string { return fmt.Sprintf("poison-%d", i) }
	poisonEvents := func(i int) []dataset.DownloadEvent { return w.Replay[i*batchSize : (i+1)*batchSize] }

	poisonDir := t.TempDir()
	l, _, err := serve.OpenLedger(serve.LedgerOptions{Journal: journal.Options{Dir: poisonDir}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, 2)
	for i := 0; i < poisoned; i++ {
		body, _ := batchOf(t, w, poisonEvents(i))
		if err := l.AcceptWire(poisonID(i), poisonEvents(i), string(body)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Result(poisonID(i), []serve.VerdictRecord{{Type: "verdict", File: "poison", Verdict: "poison"}}); err != nil {
			t.Fatal(err)
		}
		perShard[journal.ShardIndex(poisonID(i), 2)]++
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("poison IDs per shard %v: every shard needs some", perShard)
	}
	journalDir := t.TempDir()
	for si := 0; si < 2; si++ {
		shard := fmt.Sprintf("shard-%03d", si)
		if err := os.Mkdir(filepath.Join(journalDir, shard), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(poisonDir, shard, "wal-00000001.seg"), filepath.Join(journalDir, shard, "free-00000001.seg")); err != nil {
			t.Fatal(err)
		}
	}

	d := startTestWorld(t, bin, journalDir)
	if pool, _ := filepath.Glob(filepath.Join(journalDir, "shard-*", "free-*.seg")); len(pool) != 0 {
		t.Fatalf("pool files %v left after boot: the daemon did not start on them", pool)
	}
	var ids []string
	var requests, replies [][]byte
	for b := poisoned; len(ids) < served; b++ {
		id := fmt.Sprintf("batch-%d", b)
		if journal.ShardIndex(id, 2) != 0 {
			continue
		}
		request, want := batchOf(t, w, w.Replay[b*batchSize:(b+1)*batchSize])
		ids, requests = append(ids, id), append(requests, request)
		replies = append(replies, mustServe(t, d, id, request, want))
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.wait(t, testDrain)

	d = startTestWorld(t, bin, journalDir)
	for i, id := range ids {
		mustServe(t, d, id, requests[i], replies[i])
	}
	for i := 0; i < poisoned; i++ {
		request, want := batchOf(t, w, poisonEvents(i))
		mustServe(t, d, poisonID(i), request, want)
	}
	if n := d.metric(t, `longtail_requests_total{result="dedup"}`); n != served {
		t.Fatalf("%d dedup hits, want the %d retransmits of served IDs and none for a poison ID", n, served)
	}
}

// TestDaemonHeapFence boots a bare longtaild — the default corpus, no
// journal, no -lifecycle — and reads the heap gauges off /metrics. Once
// it serves, the daemon needs the compiled feature context and the
// rules; the corpus it generated to get them (about 550,000 heap
// objects) must be unreachable. The bound sits an order of magnitude
// above what the context and an idle server hold (about 1,200) and an
// order below the corpus, so the test fails on the day some later
// change keeps the store, the pipeline or the training set alive.
func TestDaemonHeapFence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the longtaild binary and boots it on the default corpus")
	}
	d := startDaemon(t, buildDaemon(t))
	const maxObjects = 50_000
	objects, live := d.metric(t, "longtail_heap_objects"), d.metric(t, "longtail_heap_live_bytes")
	t.Logf("after boot: %d heap objects, %d live bytes", objects, live)
	if objects >= maxObjects {
		t.Errorf("%d heap objects after boot, want fewer than %d: the daemon still carries the corpus", objects, maxObjects)
	}
	// The log is readable once the process has been reaped.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(t, testDrain); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	if !strings.Contains(d.log.String(), "context: ") {
		t.Errorf("no context line in the boot log:\n%s", d.log.String())
	}
}
