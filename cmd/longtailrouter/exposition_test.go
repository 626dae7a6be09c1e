package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from this run")

// TestExpositionGolden pins the /metrics of the two binaries: a
// stateless longtaild, a journaled one with the lifecycle evaluator and
// a router over the journaled one, each driven by the same scripted
// traffic. testdata/exposition.golden holds every series key (name and
// labels, in the order exposed, replica addresses as node0) and every
// integer value; a series whose value is a time, a heap size or a count
// of timer-driven probes is held by key only ("~" in the golden).
// `go test ./cmd/longtailrouter -run ExpositionGolden -update` rewrites
// the file.
func TestExpositionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds longtaild and longtailrouter and boots three processes")
	}
	bins := t.TempDir()
	bin := func(name string) string { return filepath.Join(bins, name) }
	for _, name := range []string{"longtaild", "longtailrouter"} {
		if out, err := exec.Command("go", "build", "-o", bin(name), "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	world := []string{"-seed", fmt.Sprint(testSeed), "-scale", fmt.Sprint(testScale), "-tau", fmt.Sprint(testTau)}
	w, err := experiments.BootServingWorld(synth.DefaultConfig(testSeed, testScale), testTau)
	if err != nil {
		t.Fatal(err)
	}
	const batches, batchSize = 6, 16
	if len(w.Replay) < batches*batchSize {
		t.Fatalf("replay month has %d events, need %d", len(w.Replay), batches*batchSize)
	}
	body := make([][]byte, batches)
	for b := range body {
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			if body[b], err = export.AppendEventLine(body[b], &w.Replay[i]); err != nil {
				t.Fatal(err)
			}
			body[b] = append(body[b], '\n')
		}
	}
	ctx := context.Background()
	// drive sends every batch one after the other, under an ID when a
	// prefix is given, sends the first one twice more (a stateless node
	// answers its third copy from the memo), and posts one body that is
	// not event lines.
	drive := func(p *proc, prefix string) {
		t.Helper()
		id := func(b int) string {
			if prefix == "" {
				return ""
			}
			return fmt.Sprintf("%s-%d", prefix, b)
		}
		for b := range body {
			if _, _, err := p.client.ClassifyRaw(ctx, id(b), "", body[b], 0); err != nil {
				t.Fatalf("%s batch %d: %v", p.name, b, err)
			}
		}
		for range 2 {
			if _, _, err := p.client.ClassifyRaw(ctx, id(0), "", body[0], 0); err != nil {
				t.Fatalf("%s retransmit: %v", p.name, err)
			}
		}
		resp, err := http.Post("http://"+p.addr+"/classify", "application/x-ndjson", strings.NewReader("not an event\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: a body that is not event lines answered %d, want 400", p.name, resp.StatusCode)
		}
	}

	stateless := start(t, bin("longtaild"), freeAddr(t), world...)
	drive(stateless, "")
	journaled := start(t, bin("longtaild"), freeAddr(t), append(world,
		"-journal-dir", t.TempDir(), "-journal-shards", "2", "-lifecycle")...)
	drive(journaled, "node")
	got := "== stateless node\n" + settled(t, stateless, nil)
	got += "== journaled node, lifecycle evaluator\n" + settled(t, journaled, nil)
	router := start(t, bin("longtailrouter"), freeAddr(t), "-replicas", journaled.addr)
	drive(router, "routed")
	got += "== router over the journaled node\n" + settled(t, router, strings.NewReplacer(journaled.addr, "node0"))

	const golden = "testdata/exposition.golden"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var a, b string
			if i < len(wl) {
				a = wl[i]
			}
			if i < len(gl) {
				b = gl[i]
			}
			if a != b {
				t.Fatalf("exposition differs from %s at line %d:\nwant %q\ngot  %q\nwhole exposition:\n%s", golden, i+1, a, b, got)
			}
		}
	}
}

// settled scrapes p until two scrapes a tenth of a second apart agree
// (the lifecycle evaluator counts behind the replies) and returns the
// exposition in the golden's form: "key value", or "key ~" for a
// series held by key only, every key passed through rename.
func settled(t *testing.T, p *proc, rename *strings.Replacer) string {
	t.Helper()
	prev := ""
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		text, err := p.client.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sc := bufio.NewScanner(strings.NewReader(text))
		for sc.Scan() {
			key, value, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				t.Fatalf("%s /metrics line %q has no value", p.name, sc.Text())
			}
			if rename != nil {
				key = rename.Replace(key)
			}
			if keyOnly(key) {
				value = "~"
			}
			fmt.Fprintf(&sb, "%s %s\n", key, value)
		}
		if sb.String() == prev {
			return prev
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s /metrics still moving after 10 s:\n%s", p.name, text)
		}
		prev = sb.String()
	}
}

// keyOnly reports whether the series' value is a time, a heap size or
// a count the prober's timer moves, so the golden holds its key but not
// its value.
func keyOnly(key string) bool {
	name, _, _ := strings.Cut(key, "{")
	switch {
	case strings.HasSuffix(name, "_seconds_bucket"), strings.HasSuffix(name, "_seconds_sum"):
		return true
	}
	switch name {
	case "longtail_heap_live_bytes", "longtail_heap_objects", "longtail_gc_cycles_total", "longtail_gc_cpu_seconds_total",
		"longtail_probe_total":
		return true
	}
	return false
}
