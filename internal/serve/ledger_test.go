package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/journal"
)

// acceptEvents accepts a batch the way the handler does: through
// AcceptWire, with the events' canonical line-JSON form as the body.
func acceptEvents(l *Ledger, id string, events []dataset.DownloadEvent) error {
	var body []byte
	for i := range events {
		var err error
		if body, err = export.AppendEventLine(body, &events[i]); err != nil {
			return err
		}
		body = append(body, '\n')
	}
	return l.AcceptWire(id, events, string(body))
}

func newTestLedger(t *testing.T, dir string) (*Ledger, *LedgerRecovery) {
	t.Helper()
	l, rec, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// TestLedgerAcceptResultLookup: the basic exactly-once protocol —
// accept, result, dedup lookup — against a live journal.
func TestLedgerAcceptResultLookup(t *testing.T) {
	f := sharedFixture(t)
	l, rec := newTestLedger(t, t.TempDir())
	defer l.Close()
	if len(rec.Pending) != 0 || rec.Results != 0 {
		t.Fatalf("fresh ledger recovered %+v", rec)
	}
	events := f.replay[:4]
	if err := acceptEvents(l, "batch-1", events); err != nil {
		t.Fatal(err)
	}
	if !l.IsPending("batch-1") {
		t.Fatal("accepted batch not pending")
	}
	if _, ok := l.Lookup("batch-1"); ok {
		t.Fatal("pending batch has a result")
	}
	verdicts := []VerdictRecord{{Type: "verdict", File: string(events[0].File), Verdict: "benign"}}
	if _, err := l.Result("batch-1", verdicts); err != nil {
		t.Fatal(err)
	}
	if l.IsPending("batch-1") {
		t.Fatal("resulted batch still pending")
	}
	got, ok := l.LookupVerdicts("batch-1")
	if !ok || len(got) != 1 || got[0].File != verdicts[0].File {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	// First result wins: a racing duplicate must not overwrite.
	if _, err := l.Result("batch-1", []VerdictRecord{{File: "other"}}); err != nil {
		t.Fatal(err)
	}
	got, _ = l.LookupVerdicts("batch-1")
	if got[0].File != verdicts[0].File {
		t.Fatal("duplicate result overwrote the first")
	}
	// Accept of an already-resulted ID is a no-op, not a new pending.
	if err := acceptEvents(l, "batch-1", events); err != nil {
		t.Fatal(err)
	}
	if l.IsPending("batch-1") {
		t.Fatal("re-accept of resulted batch went pending")
	}
}

// TestLedgerRecoveryReplaysPending: a ledger reopened after an unclean
// stop reconstructs completed results and replays pending batches
// through the engine to byte-identical verdicts.
func TestLedgerRecoveryReplaysPending(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _ := newTestLedger(t, dir)
	engine := newTestEngine(t, f, EngineConfig{})

	done := f.replay[:3]
	verdicts, err := engine.ClassifyBatch(context.Background(), done)
	if err != nil {
		t.Fatal(err)
	}
	if err := acceptEvents(l, "done-1", done); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result("done-1", verdicts); err != nil {
		t.Fatal(err)
	}
	pending := f.replay[3:8]
	if err := acceptEvents(l, "pend-1", pending); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: results are async, so force them down
	// before "dying" without Close-ing cleanly at the ledger layer.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := newTestLedger(t, dir)
	defer l2.Close()
	if rec.Results != 1 {
		t.Fatalf("recovered %d results, want 1", rec.Results)
	}
	if len(rec.Pending) != 1 || len(rec.Pending["pend-1"]) != 5 {
		t.Fatalf("recovered pending %+v", rec.Pending)
	}
	got, ok := l2.LookupVerdicts("done-1")
	if !ok || len(got) != len(verdicts) {
		t.Fatalf("completed batch lost in recovery: %v %v", got, ok)
	}
	for i := range got {
		if got[i].Key() != verdicts[i].Key() {
			t.Fatalf("recovered verdict %d = %q, want %q", i, got[i].Key(), verdicts[i].Key())
		}
	}

	n, err := RecoverLedger(engine, l2, rec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d batches, want 1", n)
	}
	replayed, ok := l2.LookupVerdicts("pend-1")
	if !ok || len(replayed) != 5 {
		t.Fatalf("pending batch not resolved by recovery: %v %v", replayed, ok)
	}
	// Byte-identity: replayed verdicts match fresh offline classification.
	for i := range pending {
		want := offlineKey(t, f, f.clf, &pending[i])
		if replayed[i].Key() != want {
			t.Fatalf("replayed verdict %d = %q, offline %q", i, replayed[i].Key(), want)
		}
	}
}

// TestLedgerCompaction: compaction preserves the full dedup state and
// recovery afterwards still sees every batch.
func TestLedgerCompaction(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _ := newTestLedger(t, dir)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("b-%02d", i)
		if err := acceptEvents(l, id, f.replay[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: string(f.replay[i].File)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := acceptEvents(l, "open-1", f.replay[10:12]); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions == 0 {
		t.Fatal("Compact did not compact")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := newTestLedger(t, dir)
	defer l2.Close()
	if rec.Results != 10 {
		t.Fatalf("post-compaction recovery found %d results, want 10", rec.Results)
	}
	if len(rec.Pending) != 1 || len(rec.Pending["open-1"]) != 2 {
		t.Fatalf("post-compaction pending %+v", rec.Pending)
	}
	for i := 0; i < 10; i++ {
		if _, ok := l2.Lookup(fmt.Sprintf("b-%02d", i)); !ok {
			t.Fatalf("batch b-%02d lost across compaction", i)
		}
	}
}

// TestLedgerResultRetention: the completed-result dedup cache is
// bounded — oldest-completed batches are evicted past MaxResults, both
// live and across recovery, and an evicted ID re-enters the accept path
// instead of being answered from the ledger.
func TestLedgerResultRetention(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, MaxResults: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("b-%02d", i)
		if err := acceptEvents(l, id, f.replay[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: string(f.replay[i].File)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, completed := l.Counts(); completed != 4 {
		t.Fatalf("retained %d results, want 4", completed)
	}
	if _, ok := l.Lookup("b-00"); ok {
		t.Fatal("evicted result still served")
	}
	for i := 6; i < 10; i++ {
		if _, ok := l.Lookup(fmt.Sprintf("b-%02d", i)); !ok {
			t.Fatalf("recent result b-%02d evicted out of order", i)
		}
	}
	// A retransmit of an evicted ID is re-accepted (and would be
	// reclassified — deterministically, so the verdicts match).
	if err := acceptEvents(l, "b-00", f.replay[0:1]); err != nil {
		t.Fatal(err)
	}
	if !l.IsPending("b-00") {
		t.Fatal("re-accept of an evicted ID did not go pending")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery replays through the same bound: the journaled history
	// cannot resurrect more than MaxResults completed batches.
	l2, rec, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, MaxResults: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Results > 4 {
		t.Fatalf("recovery resurrected %d results past the bound of 4", rec.Results)
	}
	if len(rec.Pending) != 1 || len(rec.Pending["b-00"]) != 1 {
		t.Fatalf("recovered pending %+v, want the re-accepted b-00", rec.Pending)
	}
}

// TestLedgerCompactConcurrentAccept: compaction racing with live
// accepts/results must never delete a batch's only durable record —
// after a reopen, every acknowledged ID is either completed or pending,
// regardless of where its journal append fell relative to the seal and
// the rewrite.
func TestLedgerCompactConcurrentAccept(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				if err := acceptEvents(l, id, f.replay[:1]); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if _, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: id}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := l.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("w%d-%03d", w, i)
			_, completed := l2.Lookup(id)
			if !completed && !l2.IsPending(id) {
				t.Fatalf("batch %s vanished: accepted durably but lost across a concurrent compaction", id)
			}
		}
	}
}

// TestLedgerEmptyID: an empty request ID is rejected, not journaled.
func TestLedgerEmptyID(t *testing.T) {
	f := sharedFixture(t)
	l, _ := newTestLedger(t, t.TempDir())
	defer l.Close()
	if err := acceptEvents(l, "", f.replay[:1]); err == nil {
		t.Fatal("empty request id accepted")
	}
}

// flakyFile is a journal file whose writes fail while failWrites is set
// and whose every fsync fails for as long as *epoch is still the value
// it had when the file was opened (born). It is not an *os.File, so the
// journal syncs it through Sync.
type flakyFile struct {
	journal.File
	failWrites *atomic.Bool
	epoch      *atomic.Int64
	born       int64
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.failWrites != nil && f.failWrites.Load() {
		return 0, errors.New("disk full")
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	if f.epoch != nil && f.epoch.Load() == f.born {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestLedgerCompactionFailureDoesNotFailResult: the compaction a Result
// happens to trigger is housekeeping. When it fails (here: the fsync of
// the rewritten entries errors out), the request that triggered it
// still gets the body it stored and journaled, the failure is counted
// for /metrics, and nothing is lost — the segments the rewrite would
// have replaced are still there at the next open.
//
// The segment a compaction opens cannot be fsynced until the Result
// that triggered it has returned — by the compaction or by the
// journal's sync loop, which may get to the rewritten records first —
// so every compaction fails whichever of the two runs the fsync; the
// epoch then moves on and the same segment takes the next Accept.
func TestLedgerCompactionFailureDoesNotFailResult(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	var epoch atomic.Int64
	l, _, err := OpenLedger(LedgerOptions{
		Journal: journal.Options{Dir: dir, OpenFile: func(path string) (journal.File, error) {
			file, err := os.Create(path)
			return &flakyFile{File: file, epoch: &epoch, born: epoch.Load()}, err
		}},
		CompactBytes: 1, // every Result arms compaction
	})
	if err != nil {
		t.Fatal(err)
	}
	const results = 3
	for i := 0; i < results; i++ {
		epoch.Add(1) // every segment opened so far syncs; the next one will not, for now
		id := fmt.Sprintf("b-%d", i)
		if err := acceptEvents(l, id, f.replay[i:i+1]); err != nil {
			t.Fatal(err)
		}
		want := []VerdictRecord{{Type: "verdict", File: id}}
		body, err := l.Result(id, want)
		if err != nil {
			t.Fatalf("Result failed because its compaction did: %v", err)
		}
		if got, ok := l.Lookup(id); !ok || !bytes.Equal(got, body) || len(body) == 0 {
			t.Fatalf("Result returned %q, ledger holds %q (%v)", body, got, ok)
		}
	}
	jm := l.JournalMetrics()
	if jm.CompactErrors != results || jm.Stats.Compactions != 0 {
		t.Fatalf("CompactErrors = %d, Compactions = %d; want %d failures and no success", jm.CompactErrors, jm.Stats.Compactions, results)
	}
	// No rewrite reached the disk, so the reference the trigger scales by
	// must not have moved.
	l.mu.Lock()
	rewritten := l.rewritten
	l.mu.Unlock()
	if rewritten != 0 {
		t.Fatalf("rewritten = %d after %d failed compactions and no successful one, want 0", rewritten, jm.CompactErrors)
	}
	var out strings.Builder
	(&Metrics{}).WriteTo(&out, 0, false, &jm)
	if !strings.Contains(out.String(), fmt.Sprintf("longtail_journal_compact_errors_total %d\n", jm.CompactErrors)) {
		t.Fatalf("/metrics does not expose the failures:\n%s", out.String())
	}
	epoch.Add(1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Results != results {
		t.Fatalf("recovered %d results after failed compactions, want %d", rec.Results, results)
	}
}

// TestLedgerCompactionIsTheLog: a ledger filled, compacted and reopened
// comes back from ordinary records — Lookup bodies byte-identical, the
// same pending set, nothing in the journal directory but segments and
// the pool of retired ones — and in completion order: the further
// results evict the oldest-completed IDs first. (A snapshot restored in
// sorted-ID order evicted w first.)
func TestLedgerCompactionIsTheLog(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	opts := LedgerOptions{Journal: journal.Options{Dir: dir}, Shards: 2, MaxResults: 4}
	l, _, err := OpenLedger(opts)
	if err != nil {
		t.Fatal(err)
	}
	completed := []string{"z-first", "y-second", "x-third", "w-fourth"}
	bodies := make(map[string][]byte)
	for i, id := range completed {
		if err := acceptEvents(l, id, f.replay[i:i+2]); err != nil {
			t.Fatal(err)
		}
		body, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: id, Verdict: "quote\"<&>\u00e9"}})
		if err != nil {
			t.Fatal(err)
		}
		bodies[id] = body
	}
	for i, id := range []string{"pend-b", "pend-a"} {
		if err := acceptEvents(l, id, f.replay[10+i:13+i]); err != nil {
			t.Fatal(err)
		}
	}
	wantPending := l.PendingIDs()
	for round := 0; round < 2; round++ { // the second compacts a log that is only a rewrite
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !journalFileRE.MatchString(d.Name()) {
			t.Errorf("journal directory holds %s after compaction", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	l2, rec, err := OpenLedger(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for id, want := range bodies {
		if got, ok := l2.Lookup(id); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s after compact + reopen = %q (%v), want %q", id, got, ok, want)
		}
	}
	if got := l2.PendingIDs(); !slices.Equal(got, wantPending) || len(rec.Pending["pend-a"]) != 3 {
		t.Fatalf("pending after compact + reopen = %v (%d events in pend-a), want %v", got, len(rec.Pending["pend-a"]), wantPending)
	}
	for i, evicted := range completed {
		id := fmt.Sprintf("new-%d", i)
		if _, err := l2.Result(id, []VerdictRecord{{Type: "verdict", File: id}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := l2.Lookup(evicted); ok {
			t.Fatalf("result %d after the restart did not evict %s, the oldest completed", i+1, evicted)
		}
		for _, id := range completed[i+1:] {
			if _, ok := l2.Lookup(id); !ok {
				t.Fatalf("result %d after the restart evicted %s ahead of %s: completion order lost", i+1, id, evicted)
			}
		}
	}
}

// journalFileRE is every file name a journal directory may hold: its
// segments and the pool of retired ones compaction keeps for reuse.
var journalFileRE = regexp.MustCompile(`^(wal|free)-[0-9]{8}\.seg$`)

// TestLedgerRecyclesRotations: once compaction has retired segments, a
// ledger's rotations take them from the pool — at least 90% of the
// rotations past its second compaction — so its appends overwrite
// written blocks instead of reserving new ones.
func TestLedgerRecyclesRotations(t *testing.T) {
	f := sharedFixture(t)
	l, _, err := OpenLedger(LedgerOptions{
		Journal:      journal.Options{Dir: t.TempDir(), SegmentBytes: 16 << 10},
		Shards:       2,
		CompactBytes: 128 << 10,
		MaxResults:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var base journal.Stats
	for i := 0; l.Stats().Compactions < 6; i++ {
		if i == 20000 {
			t.Fatalf("%d compactions after %d requests", l.Stats().Compactions, i)
		}
		id := fmt.Sprintf("req-%05d", i)
		if err := acceptEvents(l, id, f.replay[i%64:i%64+4]); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: id, Verdict: "benign"}}); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); base.Compactions < 2 {
			base = st
		}
	}
	st := l.Stats()
	rotations, recycled := st.Rotations-base.Rotations, st.Recycled-base.Recycled
	if rotations < 20 || 10*recycled < 9*rotations {
		t.Fatalf("%d of %d rotations after the second compaction took a pool file, want at least 90%% of at least 20", recycled, rotations)
	}
}

// TestRecoverOversizedPendingBatch: a journal written under a larger
// -queue holds a pending batch of three times this engine's capacity.
// Admission is all-or-nothing, so classifying it whole fails forever and
// used to fail the boot; recovery classifies it in slices and the
// verdicts equal the offline classifier's, event for event.
func TestRecoverOversizedPendingBatch(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _ := newTestLedger(t, dir)
	const capacity = 16
	events := f.replay[:3*capacity]
	if err := acceptEvents(l, "big-1", events); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	engine := newTestEngine(t, f, EngineConfig{QueueSize: capacity})
	if _, err := engine.ClassifyBatch(context.Background(), events); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("whole batch = %v, want ErrOverloaded; the test is vacuous", err)
	}
	l2, rec := newTestLedger(t, dir)
	defer l2.Close()
	if n, err := RecoverLedger(engine, l2, rec); err != nil || n != 1 {
		t.Fatalf("RecoverLedger = %d, %v", n, err)
	}
	got, ok := l2.Lookup("big-1")
	if !ok {
		t.Fatal("oversized pending batch not resolved by recovery")
	}
	whole, err := newTestEngine(t, f, EngineConfig{}).ClassifyBatch(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if want := offlineKey(t, f, f.clf, &events[i]); whole[i].Key() != want {
			t.Fatalf("unsliced verdict %d = %q, offline %q", i, whole[i].Key(), want)
		}
	}
	if want := appendVerdictBody(nil, whole); !bytes.Equal(got, want) {
		t.Fatalf("sliced recovery body differs from the unsliced answer:\n got %q\nwant %q", got, want)
	}
}
