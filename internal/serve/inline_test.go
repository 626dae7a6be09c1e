package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/journal"
)

// lockShards takes every shard's lock, as their workers do per frame,
// and returns the function that releases them. While they are held
// Submit classifies nothing itself: every frame, however short, queues
// for its worker, which waits for the lock.
func lockShards(e *Engine) (unlock func()) {
	for _, ws := range e.states {
		ws.mu.Lock()
	}
	return func() {
		for _, ws := range e.states {
			ws.mu.Unlock()
		}
	}
}

// TestInlineFramesDifferential serves one Zipf stream, in batches of 1
// to 2,048 events, through two engines: one as built, whose short frames
// are classified by the admitting goroutine, and one whose shard locks
// are held across every Submit, so that all frames take the worker
// path. Verdicts, memo hits, verdict counters and EventsIn must agree,
// batch by batch: who runs processFrame changes nothing it does.
func TestInlineFramesDifferential(t *testing.T) {
	f := sharedFixture(t)
	cfg := EngineConfig{Shards: 4, QueueSize: 4096}
	inline, workers := newTestEngine(t, f, cfg), newTestEngine(t, f, cfg)
	rng := rand.New(rand.NewSource(23))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(f.replay)-1))
	ctx := context.Background()
	fresh, sawInline := 0, false
	for b := 0; b < 60; b++ {
		n := 1 + rng.Intn(2048)
		if b%3 == 0 {
			n = 1 + rng.Intn(64) // the sizes whose frames stay with the caller
		}
		batch := make([]dataset.DownloadEvent, n)
		for i := range batch {
			batch[i] = f.replay[zipf.Uint64()]
			if rng.Intn(4) == 0 {
				fresh++
				batch[i].Domain = fmt.Sprintf("fresh-%d.example", fresh)
			}
		}

		// A worker that signalled the previous batch done may still hold its
		// shard's lock and beat this Submit's TryLock: wait it out.
		lockShards(inline)()
		pending, err := inline.Submit(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if n <= inlineFrameEvents {
			// No frame can be longer than the batch and every shard is
			// free: every frame ran before Submit returned.
			sawInline = true
			if d := inline.QueueDepth(); d != 0 {
				t.Fatalf("batch %d (%d events): %d events still queued after Submit; short frames did not run on the caller", b, n, d)
			}
		}
		got, err := pending.Wait()
		if err != nil {
			t.Fatal(err)
		}

		unlock := lockShards(workers)
		pending, err = workers.Submit(ctx, batch)
		if d := workers.QueueDepth(); err == nil && d != n {
			t.Fatalf("batch %d: %d of %d events queued with every shard locked; some frame ran on the caller", b, d, n)
		}
		unlock()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pending.Wait()
		if err != nil {
			t.Fatal(err)
		}

		for i := range want {
			if got[i].Key() != want[i].Key() || got[i].Generation != want[i].Generation || got[i].Error != want[i].Error {
				t.Fatalf("batch %d event %d: inline %+v, workers %+v", b, i, got[i], want[i])
			}
		}
		mi, mw := inline.Metrics(), workers.Metrics()
		if mi.MemoHits.Load() != mw.MemoHits.Load() || mi.EventsIn.Load() != mw.EventsIn.Load() {
			t.Fatalf("batch %d: memo hits %d vs %d, events in %d vs %d", b, mi.MemoHits.Load(), mw.MemoHits.Load(), mi.EventsIn.Load(), mw.EventsIn.Load())
		}
		for v := classify.VerdictNone; v <= classify.VerdictRejected; v++ {
			if mi.verdicts[v].Load() != mw.verdicts[v].Load() {
				t.Fatalf("batch %d: %s verdicts %d inline, %d on workers", b, v, mi.verdicts[v].Load(), mw.verdicts[v].Load())
			}
		}
	}
	if !sawInline || inline.Metrics().MemoHits.Load() == 0 {
		t.Fatal("the stream never exercised an inline frame or the memo; the test is vacuous")
	}
	if qi, qw := inline.Metrics().QueueWait.Count(), workers.Metrics().QueueWait.Count(); qi != qw {
		t.Fatalf("queue histogram: %d frames observed inline, %d on workers", qi, qw)
	}
}

// TestInlineAndWorkerFramesShareAShard runs 8-event batches (classified
// by their callers) against 1,024-event batches (classified by the
// worker) on an engine of one shard while Swap keeps bumping the
// generation: one memo, one doorkeeper, two kinds of user. Under -race
// this is the proof that the shard lock covers both; every verdict must
// be ClassifyOne's under the generation it names.
func TestInlineAndWorkerFramesShareAShard(t *testing.T) {
	f := sharedFixture(t)
	clfB := allMatchClassifier(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 1, QueueSize: 8192})
	var servedMu sync.Mutex
	served := map[uint64]*classify.Classifier{1: f.clf}
	check := func(batch []dataset.DownloadEvent, verdicts []VerdictRecord) error {
		for i, v := range verdicts {
			servedMu.Lock()
			clf := served[v.Generation]
			servedMu.Unlock()
			vec, err := f.ex.Vector(&batch[i])
			if err != nil {
				return err
			}
			cv, matched := clf.ClassifyOne(&features.Instance{Vector: vec, File: batch[i].File})
			if want := (VerdictRecord{File: string(batch[i].File), Verdict: cv.String(), Rules: matched}).Key(); v.Key() != want {
				return fmt.Errorf("gen %d: served %q, ClassifyOne says %q", v.Generation, v.Key(), want)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g, size := range []int{8, 8, 1024} {
		wg.Add(1)
		go func(size int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for rounds := 0; rounds < 40; rounds++ {
				batch := make([]dataset.DownloadEvent, size)
				for i := range batch {
					batch[i] = f.replay[rng.Intn(64)] // a small hot set: the memo is in play
				}
				verdicts, err := engine.ClassifyBatch(context.Background(), batch)
				if err == nil {
					err = check(batch, verdicts)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(size, int64(g))
	}
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for clf := clfB; ; {
			select {
			case <-stop:
				return
			default:
			}
			servedMu.Lock()
			gen, err := engine.Swap(clf)
			served[gen] = clf
			servedMu.Unlock()
			if err != nil {
				errs <- err
				return
			}
			if clf == clfB {
				clf = f.clf
			} else {
				clf = clfB
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-swapped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestJournaledReplyWaitsForItsResult: a journaled batch answered
// directly has one record, its result, written after classification,
// and its reply leaves only once that record is fsynced. Classification
// and the fsync are both made to take a fixed time — the workers are
// held off their shards, the fsync sleeps — and a 256-event request
// (64-event frames, on the workers) must take at least their sum, one
// fsync of it: the accept record that used to overlap classification
// is gone, and nothing is answered before its record is durable.
func TestJournaledReplyWaitsForItsResult(t *testing.T) {
	const each = 60 * time.Millisecond
	f := sharedFixture(t)
	engine := newTestEngine(t, f, EngineConfig{Shards: 4, QueueSize: 4096})
	ledger, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{
		Dir: t.TempDir(),
		OpenFile: func(path string) (journal.File, error) {
			file, err := os.Create(path)
			return slowSync{file, each}, err
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer ledger.Close()
	srv, err := NewServer(engine, classify.Reject, WithLedger(ledger))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body, err := marshalEvents(f.replay[:256])
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body))
	req.Header.Set(RequestIDHeader, "durable-1")
	rec := httptest.NewRecorder()

	unlock := lockShards(engine)
	syncs := ledger.Stats().Syncs
	start := time.Now()
	time.AfterFunc(each, unlock)
	srv.Handler().ServeHTTP(rec, req)
	took := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if took < 2*each {
		t.Fatalf("answered in %s, before classification (%s) and then the result's fsync (%s) could have finished", took, each, each)
	}
	if st := ledger.Stats(); st.Syncs-syncs != 1 || st.Appends != 1 {
		t.Fatalf("%d fsyncs and %d records for one direct request, want 1 and 1", st.Syncs-syncs, st.Appends)
	}
}

// slowSync is a segment file whose fsync takes at least d. It has no
// descriptor, so the journal syncs it through this method.
type slowSync struct {
	f *os.File
	d time.Duration
}

func (s slowSync) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s slowSync) Close() error                { return s.f.Close() }
func (s slowSync) Sync() error {
	time.Sleep(s.d)
	return s.f.Sync()
}
