package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/part"
)

// allMatchClassifier builds a classifier with one rule that matches
// every instance (AlexaRank <= +huge) and concludes malicious — verdicts
// under it differ from the trained fixture classifier for almost every
// event, which is what makes stale memo entries detectable.
func allMatchClassifier(t *testing.T) *classify.Classifier {
	t.Helper()
	clf, err := classify.NewFromRules([]part.Rule{{
		Conditions: []part.Condition{{
			AttrIndex: features.NumNominal,
			AttrName:  features.AttributeNames[features.NumNominal],
			Op:        part.OpLE, Threshold: 1e12,
		}},
		Class: classify.ClassMalicious, ClassName: "malicious",
	}}, classify.Reject)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestMemoFreshAcrossSwap hammers the per-worker verdict memo with hot
// reloads that change the rules: streamers replay the same small event
// set (maximal memo pressure) while a reloader alternates between two
// classifiers with different verdicts. Every returned verdict must
// match the offline classification under the generation it claims —
// a memo entry surviving a Swap would surface as a verdict labeled
// with the new generation but computed under the old rules. Run under
// -race this also exercises the worker-owned memo for data races.
func TestMemoFreshAcrossSwap(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 4, QueueSize: 4096})
	clfB := allMatchClassifier(t)

	hot := f.replay[:24]
	// Generation g serves f.clf when odd (boot gen is 1), clfB when even.
	keyFor := make(map[uint64][]string, 2)
	for _, pair := range []struct {
		parity uint64
		clf    *classify.Classifier
	}{{1, f.clf}, {0, clfB}} {
		keys := make([]string, len(hot))
		for i := range hot {
			keys[i] = offlineKey(t, f, pair.clf, &hot[i])
		}
		keyFor[pair.parity] = keys
	}

	const reloads = 40
	var wg sync.WaitGroup
	var failed atomic.Bool
	errCh := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			clf := clfB
			if i%2 == 1 {
				clf = f.clf
			}
			if _, err := engine.Swap(clf); err != nil {
				errCh <- err
				failed.Store(true)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 60 && !failed.Load(); iter++ {
				verdicts, err := engine.ClassifyBatch(context.Background(), hot)
				if err != nil {
					errCh <- err
					failed.Store(true)
					return
				}
				for i, v := range verdicts {
					want := keyFor[v.Generation%2][i]
					if got := v.Key(); got != want {
						errCh <- fmt.Errorf("event %d gen %d: got %q, offline says %q",
							i, v.Generation, got, want)
						failed.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	engine.Close()
}

// distinctKeys returns the first n replay events whose (file, process,
// domain) keys are pairwise different, so sightings can be counted
// exactly.
func distinctKeys(t testing.TB, f *fixture, n int) []dataset.DownloadEvent {
	t.Helper()
	type key struct{ file, process, domain string }
	seen := make(map[key]bool, n)
	var out []dataset.DownloadEvent
	for i := range f.replay {
		ev := f.replay[i]
		k := key{string(ev.File), string(ev.Process), ev.Domain}
		if seen[k] {
			continue
		}
		seen[k] = true
		if out = append(out, ev); len(out) == n {
			return out
		}
	}
	t.Fatalf("fixture has only %d distinct keys, want %d", len(out), n)
	return nil
}

// TestMemoHitAccounting: a key is admitted to the memo on its second
// sight, so of three identical passes the first two classify every
// event and the third is answered from the memo — hits counted,
// verdicts unchanged — and the counter surfaces in /metrics.
func TestMemoHitAccounting(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 2, QueueSize: 1024})
	batch := distinctKeys(t, f, 20)
	var passes [3][]VerdictRecord
	for p, wantHits := range []uint64{0, 0, uint64(len(batch))} {
		verdicts, err := engine.ClassifyBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		passes[p] = verdicts
		if hits := engine.Metrics().MemoHits.Load(); hits != wantHits {
			t.Fatalf("after pass %d MemoHits = %d, want %d", p+1, hits, wantHits)
		}
	}
	for i := range batch {
		want := offlineKey(t, f, f.clf, &batch[i])
		for p := range passes {
			if got := passes[p][i]; got.Key() != want || got.Generation != 1 {
				t.Fatalf("pass %d verdict %d = %q gen %d, offline says %q", p+1, i, got.Key(), got.Generation, want)
			}
		}
	}
	var buf bytes.Buffer
	engine.Metrics().WriteTo(&buf, engine.QueueDepth(), false, nil)
	if !strings.Contains(buf.String(), fmt.Sprintf("longtail_memo_hits_total %d\n", len(batch))) {
		t.Fatal("metrics exposition lacks the memo hits")
	}
	// Verdict tallies must count memoized answers too.
	var total uint64
	for v := classify.VerdictNone; v <= classify.VerdictRejected; v++ {
		total += engine.Metrics().VerdictCount(v)
	}
	if want := uint64(3 * len(batch)); total != want {
		t.Fatalf("verdict tallies sum to %d, want %d", total, want)
	}
}

// runFrame hands events to processFrame as one frame, the way a worker
// receives them, against a worker state the test owns. It returns the
// verdicts and how many events were shed.
func runFrame(e *Engine, ws *workerState, ctx context.Context, events []dataset.DownloadEvent) ([]VerdictRecord, int64) {
	b := &Batch{e: e, events: events, results: make([]VerdictRecord, len(events))}
	b.done.Add(len(events))
	e.inflight.Add(int64(len(events)))
	frame := framePool.Get().(*shardBatch)
	frame.batch, frame.ctx, frame.enqueued = b, ctx, time.Now()
	for i := range events {
		frame.idx = append(frame.idx, int32(i))
	}
	e.processFrame(frame, ws)
	b.done.Wait()
	return b.results, b.shed.Load()
}

// wireEvents round-trips events through a request body, so that — as in
// the /classify handler — every string of the returned events is a
// substring of that one body.
func wireEvents(t testing.TB, events []dataset.DownloadEvent) (body string, parsed []dataset.DownloadEvent) {
	t.Helper()
	raw, err := marshalEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	body = string(raw)
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		ev, err := export.ParseEventLine(line)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, ev)
	}
	return body, parsed
}

// within reports whether s's bytes lie inside body's backing array.
func within(s, body string) bool {
	if s == "" {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(body)))
	return p >= lo && p < lo+uintptr(len(body))
}

// TestMemoSecondSight follows one worker's state through three sights
// of a frame decoded from a request body: the first leaves the memo
// empty, the second admits every key under strings of its own — a memo
// entry outlives the request and must not pin its body — and the third
// is all hits.
func TestMemoSecondSight(t *testing.T) {
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{})
	ws := newWorkerState()
	body, events := wireEvents(t, distinctKeys(t, f, 64))
	if !within(string(events[0].File), body) || !within(events[0].Domain, body) {
		t.Fatal("decoded events do not alias the body; the aliasing check below is vacuous")
	}
	ctx := context.Background()
	first, _ := runFrame(engine, ws, ctx, events)
	if len(ws.memo) != 0 {
		t.Fatalf("a frame of fresh keys left %d memo entries, want 0", len(ws.memo))
	}
	runFrame(engine, ws, ctx, events)
	if len(ws.memo) != len(events) {
		t.Fatalf("second sight admitted %d of %d keys", len(ws.memo), len(events))
	}
	for _, mv := range ws.memo {
		if within(string(mv.file), body) || within(string(mv.process), body) || within(mv.domain, body) {
			t.Fatalf("memo entry for %s shares memory with the request body", mv.file)
		}
	}
	if hits := engine.Metrics().MemoHits.Load(); hits != 0 {
		t.Fatalf("MemoHits = %d before any third sight", hits)
	}
	third, _ := runFrame(engine, ws, ctx, events)
	if hits := engine.Metrics().MemoHits.Load(); hits != uint64(len(events)) {
		t.Fatalf("third sight hit %d of %d", hits, len(events))
	}
	for i := range events {
		if first[i].Key() != third[i].Key() || first[i].Key() != offlineKey(t, f, f.clf, &events[i]) {
			t.Fatalf("event %d: classified %q, memoized %q", i, first[i].Key(), third[i].Key())
		}
	}
}

// TestHashKey pins the memo's key hash: field boundaries count, and the
// value is the same in every process (MemoHits for a given stream must
// not depend on a per-process seed).
func TestHashKey(t *testing.T) {
	ev := dataset.DownloadEvent{File: "ab", Process: "c", Domain: "example.com"}
	shifted := dataset.DownloadEvent{File: "a", Process: "bc", Domain: "example.com"}
	if hashKey(&ev) == hashKey(&shifted) {
		t.Fatal("moving a byte across a field boundary left the hash unchanged")
	}
	long := dataset.DownloadEvent{
		File:    "3f786850e387550fdab836ed7e6dc881de23001b",
		Process: "89e6c98d92887913cadf06b2adb97f26cde4849b",
		Domain:  "downloads.example.org",
	}
	const want = uint64(0x1a683fa27941474c)
	if got := hashKey(&long); got != want {
		t.Fatalf("hashKey = %#x, want %#x: the hash changed, or is seeded", got, want)
	}
	// The doorkeeper indexes by the low bits: keys that differ in a
	// counter must spread over its slots as uniform draws would (as many
	// keys as slots fill 1-1/e of them, 63%).
	occupied := make(map[uint64]bool)
	for i := 0; i < memoMaxEntries; i++ {
		long.Domain = fmt.Sprintf("fresh-%d.example", i)
		occupied[hashKey(&long)&(memoMaxEntries-1)] = true
	}
	if share := float64(len(occupied)) / memoMaxEntries; share < 0.62 || share > 0.645 {
		t.Fatalf("%d sequential keys fill %.1f%% of the doorkeeper's slots, want 63%%", memoMaxEntries, 100*share)
	}
}

// TestMemoDifferential drives random key streams — all fresh, all hot,
// mixed — through an engine with hot reloads interleaved. Every verdict
// must equal ClassifyOne on the same event under the generation it
// names, whatever the memo did, and MemoHits for a fixed stream must be
// the same on every run.
func TestMemoDifferential(t *testing.T) {
	f := sharedFixture(t)
	clfB := allMatchClassifier(t)
	offline := func(clf *classify.Classifier, ev *dataset.DownloadEvent) string {
		vec, err := f.ex.Vector(ev)
		if err != nil {
			t.Fatal(err)
		}
		v, matched := clf.ClassifyOne(&features.Instance{Vector: vec, File: ev.File})
		return VerdictRecord{File: string(ev.File), Verdict: v.String(), Rules: matched}.Key()
	}
	for _, mix := range []struct {
		name string
		hot  float64
	}{{"fresh", 0}, {"hot", 1}, {"mixed", 0.6}} {
		t.Run(mix.name, func(t *testing.T) {
			run := func() uint64 {
				engine := newTestEngine(t, f, EngineConfig{Shards: 3, QueueSize: 4096})
				rng := rand.New(rand.NewSource(11))
				served := map[uint64]*classify.Classifier{1: f.clf}
				fresh := 0
				for b := 0; b < 80; b++ {
					if b%9 == 8 {
						clf := clfB
						if served[engine.Generation()] == clfB {
							clf = f.clf
						}
						gen, err := engine.Swap(clf)
						if err != nil {
							t.Fatal(err)
						}
						served[gen] = clf
					}
					batch := make([]dataset.DownloadEvent, 1+rng.Intn(96))
					for i := range batch {
						if rng.Float64() < mix.hot {
							batch[i] = f.replay[rng.Intn(32)]
							continue
						}
						fresh++
						batch[i] = f.replay[rng.Intn(len(f.replay))]
						batch[i].Domain = fmt.Sprintf("fresh-%d.example", fresh)
					}
					verdicts, err := engine.ClassifyBatch(context.Background(), batch)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range verdicts {
						if want := offline(served[v.Generation], &batch[i]); v.Key() != want {
							t.Fatalf("batch %d event %d gen %d: served %q, ClassifyOne says %q", b, i, v.Generation, v.Key(), want)
						}
					}
				}
				return engine.Metrics().MemoHits.Load()
			}
			first, again := run(), run()
			if first != again {
				t.Fatalf("MemoHits for one stream: %d, then %d", first, again)
			}
			if mix.hot == 0 && first != 0 {
				t.Fatalf("a stream of distinct keys hit the memo %d times", first)
			}
			if mix.hot > 0 && first == 0 {
				t.Fatal("a stream with repeats never hit the memo")
			}
		})
	}
}
