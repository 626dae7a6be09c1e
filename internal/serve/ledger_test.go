package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/obs"
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

// flakyFile is a journal file whose writes fail while failWrites is set,
// whose every fsync fails for as long as *epoch is still the value it
// had when the file was opened (born), and whose next fsync waits on a
// hold stored in *hold. It is not an *os.File, so the journal syncs it
// through Sync.
type flakyFile struct {
	journal.File
	failWrites *atomic.Bool
	epoch      *atomic.Int64
	born       int64
	hold       *atomic.Pointer[syncHold]
}

// syncHold stops one fsync: reached is closed once it waits, and it
// returns the error sent on release, or goes ahead on nil.
type syncHold struct {
	reached chan struct{}
	release chan error
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.failWrites != nil && f.failWrites.Load() {
		return 0, errors.New("disk full")
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	if h := f.hold; h == nil {
	} else if h := h.Swap(nil); h != nil {
		close(h.reached)
		if err := <-h.release; err != nil {
			return err
		}
	}
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
	if failed, done := l.compactErrors.Load(), l.Stats().Compactions; failed != results || done != 0 {
		t.Fatalf("compactErrors = %d, Compactions = %d; want %d failures and no success", failed, done, results)
	}
	// No rewrite reached the disk, so the reference the trigger scales by
	// must not have moved.
	l.mu.Lock()
	rewritten := l.rewritten
	l.mu.Unlock()
	if rewritten != 0 {
		t.Fatalf("rewritten = %d after %d failed compactions and no successful one, want 0", rewritten, results)
	}
	var reg obs.Registry
	reg.Family(l.emitMetrics)
	var out strings.Builder
	reg.WriteTo(&out)
	if !strings.Contains(out.String(), fmt.Sprintf("longtail_journal_compact_errors_total %d\n", results)) {
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
	l2, _ := newTestLedger(t, dir)
	defer l2.Close()
	if n, err := RecoverLedger(engine, l2); err != nil || n != 1 {
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

// TestLedgerResultRacingAnAccept: a Result that finds its ID pending
// while an accept of it is still on its way to the journal — a
// retransmit's AcceptWire as the deferred worker answers, or an imported
// accept as a request answers — must not reach the log first. Replay
// takes an accept behind its ID's result for a re-accept after an
// eviction, so it would reopen the answered batch. After a reopen every
// ID is still answered with its bytes.
func TestLedgerResultRacingAnAccept(t *testing.T) {
	f := sharedFixture(t)
	dir := t.TempDir()
	l, _ := newTestLedger(t, dir)
	body, err := export.AppendEventLine(nil, &f.replay[0])
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')
	const pairs = 400
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		id := fmt.Sprintf("r%03d", i)
		retransmit := i%2 == 0
		if retransmit {
			if err := l.AcceptWire(id, f.replay[:1], string(body)); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			var err error
			if retransmit {
				err = l.AcceptWire(id, f.replay[:1], string(body))
			} else {
				_, err = l.ImportChunk(journal.AppendFrame(nil, recAccept, appendPayload(nil, id, body)))
			}
			if err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for !l.IsPending(id) {
				runtime.Gosched()
			}
			if _, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: id}}); err != nil {
				t.Error(err)
			}
		}()
		if i%8 == 7 {
			wg.Wait()
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _ := newTestLedger(t, dir)
	defer l2.Close()
	for i := 0; i < pairs; i++ {
		id := fmt.Sprintf("r%03d", i)
		if got, ok := l2.LookupVerdicts(id); !ok || len(got) != 1 || got[0].File != id {
			t.Fatalf("%s after the reopen = %v, %v; want its answer (pending: %v)", id, got, ok, l2.IsPending(id))
		}
	}
}

// ledgerIDs is FuzzLedger's ID alphabet: small, so IDs repeat, and with
// the empty ID AcceptWire must refuse.
var ledgerIDs = []string{"", "a", "b", "c", "d", "e"}

// ledgerSide is one ledger FuzzLedger drives, on a crashable journal
// whose writes fail while fail is set and whose next fsync waits on
// hold, beside its reference.
type ledgerSide struct {
	dir  string
	fs   *faults.CrashFS
	fail atomic.Bool
	hold atomic.Pointer[syncHold]
	l    *Ledger
	m    *refLedger
}

// ledgerReply is what a Lookup or Result running beside FuzzLedger's
// steps returned.
type ledgerReply struct {
	body []byte
	ok   bool
}

// FuzzLedger holds two ledgers equal to the reference ledger
// (refledger_test.go) after every step of an op stream. Each runs on a
// faults.CrashFS journal of one to three shards and 512-byte segments,
// compacting when told or also every 256 journaled bytes. The first
// three input bytes pick MaxResults (1–8), the shard count and trigger,
// and the crashes' torn fragments; then each op is two bytes, the op and
// its argument, the op's top bit choosing the ledger:
//
//	0 AcceptWire(id, 1–4 events)  1 Result(id, one of two replies)
//	2 Compact                     3 Close and OpenLedger
//	4 CrashFS.Crash with torn fragments, OpenLedger, RecoverLedger
//	5 fail the next append, as a full disk does
//	6 ExportRange(pred) and SplitExport, checked against the reference,
//	  into the other ledger: the first chunk with a byte flipped (refused,
//	  nothing changes), every chunk in reverse order, every chunk again
//	7 answer(id): Result with its fsync held. A Lookup and a competing
//	  Result must not return while it is; with the argument's bit 6, op 6
//	  hands off from the ledger meanwhile; then the fsync goes ahead, or,
//	  with the top bit, op 4 crashes the ledger under it
//
// Every example test the reference replaced is a seed in
// testdata/fuzz/FuzzLedger, named after it.
func FuzzLedger(f *testing.F) {
	fix := sharedFixture(f)
	engine := newTestEngine(f, fix, EngineConfig{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 3+2*48 {
			t.Skip("three header bytes and at most 48 ops")
		}
		opts := LedgerOptions{MaxResults: 1 + int(data[0]%8), Shards: 1 + int(data[1]%3), CompactBytes: -1}
		if data[1]&0x80 != 0 {
			opts.CompactBytes = 256
		}
		sides, crashes := [2]*ledgerSide{{dir: t.TempDir()}, {dir: t.TempDir()}}, 0
		open := func(s *ledgerSide) {
			inj, err := faults.NewInjector(faults.Config{Seed: int64(data[2]) + int64(crashes), TornWriteRate: 1})
			if err == nil {
				s.fs, err = faults.NewCrashFS(inj)
			}
			if err != nil {
				t.Fatal(err)
			}
			s.fail.Store(false)
			o := opts
			o.Journal = journal.Options{Dir: s.dir, SegmentBytes: 512, OpenFile: func(path string) (journal.File, error) {
				file, err := s.fs.Open(path)
				return &flakyFile{File: file, failWrites: &s.fail, hold: &s.hold}, err
			}}
			if s.l, _, err = OpenLedger(o); err != nil {
				t.Fatal(err)
			}
		}
		// crash kills s -9, with settle releasing whatever fsync is held
		// once the files are gone, and recovers it: every accept survives.
		crash := func(s *ledgerSide, step int, settle func()) {
			accepted := s.l.PendingIDs()
			if err := s.fs.Crash(); err != nil {
				t.Fatal(err)
			}
			settle()
			s.l.Close() // fails: the process it stands for is dead
			crashes++
			open(s)
			if !s.m.crash(func(r *refLedger) bool { return diffLedger(s.l, r) == nil }) {
				t.Fatalf("step %d: no state a crash may leave matches: %v", step, diffLedger(s.l, s.m))
			}
			pending := s.l.PendingIDs()
			for _, id := range accepted {
				if _, done := s.l.Lookup(id); !done && !slices.Contains(pending, id) {
					t.Fatalf("step %d: accepted %q is gone after the crash", step, id)
				}
			}
			for _, id := range pending {
				verdicts, err := engine.ClassifyBatch(context.Background(), s.l.PendingEvents(id))
				if err != nil {
					t.Fatal(err)
				}
				s.m.result(id, string(appendVerdictBody(nil, verdicts)))
			}
			compactions := s.l.Stats().Compactions
			if n, err := RecoverLedger(engine, s.l); err != nil || n != len(pending) {
				t.Fatalf("step %d: RecoverLedger = %d, %v; want %d", step, n, err, len(pending))
			}
			if s.l.Stats().Compactions > compactions { // at some point of the replay: one more puts it at the end
				if err := s.l.Compact(); err != nil || !s.m.compact() {
					t.Fatal(err)
				}
			}
		}
		for _, s := range sides {
			open(s)
			s.m = (&refLedger{max: opts.MaxResults, shards: opts.Shards}).replay(nil)
			defer func() { s.l.Close() }()
		}
		for i := 3; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			s, peer := sides[op>>7], sides[1-op>>7]
			id := ledgerIDs[int(arg)%len(ledgerIDs)]
			switch op & 7 {
			case 0:
				events := fix.replay[arg>>3 : arg>>3+1+arg>>6]
				lines, err := appendEventLines(nil, events)
				if err == nil {
					err = s.l.AcceptWire(id, events, string(lines))
				}
				if ok := s.m.accept(id, string(lines)); ok != (err == nil) {
					t.Fatalf("step %d: AcceptWire(%q) = %v, reference ok = %v", i, id, err, ok)
				}
			case 1, 7:
				if id == "" {
					continue
				}
				verdicts := []VerdictRecord{{Type: "verdict", File: id, Verdict: [2]string{"benign", "malicious"}[arg>>7]}}
				if op&7 == 7 {
					verdicts[0].Verdict = "unknown"
				}
				want := string(appendVerdictBody(nil, verdicts))
				hold := &syncHold{reached: make(chan struct{}), release: make(chan error, 1)}
				_, done := s.m.results[id]
				if _, pending := s.m.pending[id]; op&7 == 7 && !done && !pending {
					s.hold.Store(hold) // a direct answer: its first fsync is its record's, or a rotation's before it
				}
				compactions := s.l.Stats().Compactions
				answered := make(chan ledgerReply, 1)
				go func() {
					body, err := s.l.Result(id, verdicts)
					answered <- ledgerReply{body, err == nil}
				}()
				var r ledgerReply
				select {
				case r = <-answered: // no fsync to hold: the ID was done or pending, or the append failed
					s.hold.Store(nil)
					want, ok := s.m.result(id, want)
					if r.ok != ok || ok && string(r.body) != want || !ok && r.body != nil {
						t.Fatalf("step %d: Result(%q) = %q, %v; reference %q, %v", i, id, r.body, r.ok, want, ok)
					}
				case <-hold.reached:
					r = answer(t, s, i, id, want, arg, peer, answered, hold.release, func() {
						crash(s, i, func() { hold.release <- errors.New("killed") })
					})
				}
				if r.ok && s.l.Stats().Compactions > compactions {
					s.m.compact()
				}
			case 2:
				if err := s.l.Compact(); s.m.compact() != (err == nil) {
					t.Fatalf("step %d: Compact = %v", i, err)
				}
			case 3:
				if err := s.l.Close(); err != nil {
					t.Fatal(err)
				}
				open(s)
				s.m.reopen()
			case 4:
				crash(s, i, func() {})
			case 5:
				s.fail.Store(true)
				s.m.failNext = true
			case 6:
				handoff(t, s, peer, arg)
			}
			if !s.m.failNext {
				s.fail.Store(false)
			}
			for k, side := range sides {
				if err := diffLedger(side.l, side.m); err != nil {
					t.Fatalf("step %d (op %d on ledger %d), ledger %d: %v", i, op&7, op>>7, k, err)
				}
			}
		}
	})
}

// answer checks a direct Result of id on s, reply body, while its fsync
// is held: neither a Lookup nor a competing Result returns before the
// record is durable; with arg's bit 6 the ledger hands off to peer
// meanwhile, the reply in flight shipped with the rest. Then the fsync
// goes ahead and all three return the reference's reply, or, with arg's
// top bit, crash kills the ledger under it and s holds nothing of the
// reply. It returns the Result's reply.
func answer(t *testing.T, s *ledgerSide, step int, id, body string, arg byte, peer *ledgerSide, answered chan ledgerReply, release chan error, crash func()) ledgerReply {
	kill := arg>>7 == 1
	defer func() { // a failed check must not leave the fsync, and Close, waiting
		select {
		case release <- errors.New("test over"):
		default:
		}
	}()
	l, failing := s.l, s.m.failNext
	s.m.answer(id, body)
	looked, raced := make(chan ledgerReply, 1), make(chan ledgerReply, 1)
	go func() {
		body, ok := l.Lookup(id)
		looked <- ledgerReply{body, ok}
	}()
	race := !kill && !failing // once the first failed, a competing Result would journal itself
	if race {
		go func() {
			body, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: id, Verdict: "benign"}})
			raced <- ledgerReply{body, err == nil}
		}()
	}
	select {
	case r := <-looked:
		t.Fatalf("step %d: Lookup(%q) = %q, %v before its record is durable", step, id, r.body, r.ok)
	case r := <-raced:
		t.Fatalf("step %d: a competing Result(%q) = %q, %v before the first one's record is durable", step, id, r.body, r.ok)
	case <-time.After(2 * time.Millisecond):
	}
	if arg&0x40 != 0 {
		handoff(t, s, peer, arg)
	}
	var ok bool
	if kill {
		crash()
	} else {
		release <- nil
		ok = s.m.settle(id)
	}
	r := <-answered
	if r.ok != ok || ok && string(r.body) != body {
		t.Fatalf("step %d: Result(%q) = %q, %v; reference ok = %v", step, id, r.body, r.ok, ok)
	}
	if got := <-looked; got.ok != ok || string(got.body) != string(r.body) {
		t.Fatalf("step %d: Lookup(%q) = %q, %v once the fsync returned; Result %q, %v", step, id, got.body, got.ok, r.body, r.ok)
	}
	if !race {
		return r
	}
	if got := <-raced; got.ok != ok || string(got.body) != string(r.body) {
		t.Fatalf("step %d: a competing Result(%q) = %q, %v; the first %q, %v", step, id, got.body, got.ok, r.body, r.ok)
	}
	return r
}

// handoff exports from src the IDs arg's low bits name, checks the
// chunks and a SplitExport of their stream against the reference, and
// imports them into dst: damaged, in reverse order, and again.
func handoff(t *testing.T, src, dst *ledgerSide, arg byte) {
	keep := func(id string) bool { return arg>>(id[0]-'a')&1 != 0 }
	chunks, err := src.l.ExportRange(keep, 64<<(arg>>6))
	if _, nilErr := src.l.ExportRange(nil, 0); err != nil || nilErr == nil {
		t.Fatalf("ExportRange = %v; with a nil predicate %v", err, nilErr)
	}
	var entries [][]refRecord
	var stream []byte
	for i, c := range chunks {
		e := decodeChunk(t, c.Data)
		if c.Seq != i || c.Entries == 0 || c.Entries != len(e) || !slices.Equal(c.IDs, ledgerIDsOf(e)) {
			t.Fatalf("chunk %d: Seq %d, %d entries, IDs %q; holds %d", i, c.Seq, c.Entries, c.IDs, len(e))
		}
		entries, stream = append(entries, e), append(stream, c.Data...)
	}
	want := src.m.live(keep)
	if got := slices.Concat(entries...); !slices.Equal(got, want) {
		t.Fatalf("ExportRange = %v, reference %v", got, want)
	}
	odd := func(id string) string {
		if id[0]&1 == 1 {
			return "odd"
		}
		return ""
	}
	split, err := SplitExport(stream, odd)
	var got []refRecord
	for _, c := range split["odd"] {
		e := decodeChunk(t, c.Data)
		if c.Entries != len(e) || !slices.Equal(c.IDs, ledgerIDsOf(e)) {
			t.Fatalf("SplitExport chunk %d: %d entries, IDs %q; holds %d", c.Seq, c.Entries, c.IDs, len(e))
		}
		got = append(got, e...)
	}
	if want = slices.DeleteFunc(want, func(e refRecord) bool { return odd(e.id) == "" }); err != nil || !slices.Equal(got, want) {
		t.Fatalf("SplitExport = %v, %v; reference %v", got, err, want)
	}
	if len(stream) == 0 {
		return
	}
	if _, err := SplitExport(stream[:len(stream)-1], odd); err == nil {
		t.Fatal("SplitExport took a stream with a torn last frame")
	}
	bad := slices.Clone(chunks[0].Data)
	bad[int(arg)%len(bad)] ^= 0xff
	if _, err := dst.l.ImportChunk(bad); err == nil {
		t.Fatal("ImportChunk took a chunk with a byte flipped")
	}
	if err := diffLedger(dst.l, dst.m); err != nil {
		t.Fatalf("a refused chunk changed the ledger: %v", err)
	}
	for pass := 0; pass < 2; pass++ {
		for k := range chunks {
			if pass == 0 {
				k = len(chunks) - 1 - k
			}
			st, err := dst.l.ImportChunk(chunks[k].Data)
			if want, ok := dst.m.importChunk(entries[k]); ok != (err == nil) || ok && st != want {
				t.Fatalf("ImportChunk = %+v, %v; reference %+v, ok = %v", st, err, want, ok)
			}
			if !dst.m.failNext {
				dst.fail.Store(false)
			}
		}
	}
}

// decodeChunk reads a handoff chunk's entries as reference records.
func decodeChunk(t testing.TB, data []byte) []refRecord {
	recs, tail := journal.DecodeFrames(data)
	out := make([]refRecord, len(recs))
	for i, r := range recs {
		id, body, err := splitPayload(r.Data)
		if err != nil || tail != 0 {
			t.Fatalf("chunk entry %d: %v, %d trailing bytes", i, err, tail)
		}
		out[i] = refRecord{kind: r.Kind, id: id, body: string(body)}
	}
	return out
}

func ledgerIDsOf(entries []refRecord) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.id
	}
	return ids
}

// diffLedger reports the first way l's observable state differs from s
// over the ID alphabet and the IDs s holds.
func diffLedger(l *Ledger, s *refLedger) error {
	if p, c := l.Counts(); p != len(s.pending) || c != len(s.results) {
		return fmt.Errorf("Counts = %d pending, %d completed; reference %d, %d", p, c, len(s.pending), len(s.results))
	}
	if got, want := l.PendingIDs(), sortedIDs(s.pending, nil); !slices.Equal(got, want) {
		return fmt.Errorf("PendingIDs = %q, reference %q", got, want)
	}
	if got, want := l.CompletedIDs(), sortedIDs(s.results, nil); !slices.Equal(got, want) {
		return fmt.Errorf("CompletedIDs = %q, reference %q", got, want)
	}
	for _, id := range slices.Concat(ledgerIDs, sortedIDs(s.results, nil), sortedIDs(s.pending, nil)) {
		body, ok := l.Lookup(id)
		if want, held := s.results[id]; ok != held || string(body) != want {
			return fmt.Errorf("Lookup(%q) = %q, %v; reference %q, %v", id, body, ok, want, held)
		}
		lines, pending := s.pending[id]
		got, _ := appendEventLines(nil, l.PendingEvents(id))
		if l.IsPending(id) != pending || string(got) != lines {
			return fmt.Errorf("%q pending = %v with events %q; reference %v with %q", id, l.IsPending(id), got, pending, lines)
		}
	}
	if got := l.evicted.Load(); got != s.evicted {
		return fmt.Errorf("evicted = %d, reference %d", got, s.evicted)
	}
	return nil
}
