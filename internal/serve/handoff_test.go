package serve

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/journal"
)

// fillLedger installs n completed batches ("done-00"...) with
// distinctive bodies and p pending batches ("pend-00"...), returning
// the completed bodies by ID for byte-identity checks.
func fillLedger(t *testing.T, l *Ledger, n, p int) map[string][]byte {
	t.Helper()
	f := sharedFixture(t)
	bodies := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("done-%02d", i)
		ev := f.replay[i%len(f.replay) : i%len(f.replay)+1]
		if err := acceptEvents(l, id, ev); err != nil {
			t.Fatal(err)
		}
		body, err := l.Result(id, []VerdictRecord{{Type: "verdict", File: fmt.Sprintf("file-%02d", i), Verdict: "benign"}})
		if err != nil {
			t.Fatal(err)
		}
		bodies[id] = body
	}
	for i := 0; i < p; i++ {
		id := fmt.Sprintf("pend-%02d", i)
		ev := f.replay[i%len(f.replay) : i%len(f.replay)+2]
		if err := acceptEvents(l, id, ev); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// TestHandoffExportImportRoundTrip: the basic transfer — everything
// exported from one ledger lands in another byte-identical, completed
// entries answering Lookup and pending ones re-entering the pending
// set.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	bodies := fillLedger(t, src, 8, 3)

	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("export of a populated ledger produced no chunks")
	}

	dst, _ := newTestLedger(t, t.TempDir())
	defer dst.Close()
	var st HandoffImportStats
	for _, c := range chunks {
		s, err := dst.ImportChunk(c.Data)
		if err != nil {
			t.Fatal(err)
		}
		st.Imported += s.Imported
		st.Pending += s.Pending
		st.Duplicates += s.Duplicates
	}
	if st.Imported != 8 || st.Pending != 3 || st.Duplicates != 0 {
		t.Fatalf("import stats = %+v, want 8 imported / 3 pending / 0 dup", st)
	}
	for id, want := range bodies {
		got, ok := dst.Lookup(id)
		if !ok {
			t.Fatalf("imported ledger lost %s", id)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("imported body for %s differs:\n got %q\nwant %q", id, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if !dst.IsPending(fmt.Sprintf("pend-%02d", i)) {
			t.Fatalf("pending pend-%02d did not survive handoff", i)
		}
	}
}

// TestHandoffExportRange: predicate filtering, deterministic chunking
// at a small byte budget, and the empty range exporting zero chunks.
func TestHandoffExportRange(t *testing.T) {
	l, _ := newTestLedger(t, t.TempDir())
	defer l.Close()
	fillLedger(t, l, 10, 2)

	t.Run("predicate filters", func(t *testing.T) {
		chunks, err := l.ExportRange(func(id string) bool { return strings.HasSuffix(id, "1") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range chunks {
			total += c.Entries
		}
		// Of done-00..done-09 and pend-00/pend-01, exactly done-01 and
		// pend-01 end in "1".
		if total != 2 {
			t.Fatalf("filtered export carried %d entries, want 2", total)
		}
	})

	t.Run("small budget splits chunks", func(t *testing.T) {
		chunks, err := l.ExportRange(func(string) bool { return true }, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) < 2 {
			t.Fatalf("64-byte budget produced %d chunks, want several", len(chunks))
		}
		for i, c := range chunks {
			if c.Seq != i {
				t.Fatalf("chunk %d has Seq %d", i, c.Seq)
			}
			if c.Entries == 0 {
				t.Fatalf("chunk %d is empty", i)
			}
		}
	})

	t.Run("empty range", func(t *testing.T) {
		chunks, err := l.ExportRange(func(string) bool { return false }, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 0 {
			t.Fatalf("empty range exported %d chunks", len(chunks))
		}
	})

	t.Run("nil predicate", func(t *testing.T) {
		if _, err := l.ExportRange(nil, 0); err == nil {
			t.Fatal("nil predicate accepted")
		}
	})
}

// TestHandoffImportIdempotent: duplicated and reordered chunk delivery
// — the retransmission patterns a flaky transfer produces — converge to
// the same ledger state with duplicates counted, not re-imported.
func TestHandoffImportIdempotent(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	bodies := fillLedger(t, src, 6, 2)
	chunks, err := src.ExportRange(func(string) bool { return true }, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("need >= 2 chunks to reorder, got %d", len(chunks))
	}

	cases := []struct {
		name  string
		order func() [][]byte
	}{
		{"duplicate every chunk", func() [][]byte {
			var out [][]byte
			for _, c := range chunks {
				out = append(out, c.Data, c.Data)
			}
			return out
		}},
		{"reverse order", func() [][]byte {
			out := make([][]byte, 0, len(chunks))
			for i := len(chunks) - 1; i >= 0; i-- {
				out = append(out, chunks[i].Data)
			}
			return out
		}},
		{"interleaved replay", func() [][]byte {
			var out [][]byte
			for _, c := range chunks {
				out = append(out, c.Data)
			}
			for i := len(chunks) - 1; i >= 0; i-- {
				out = append(out, chunks[i].Data)
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, _ := newTestLedger(t, t.TempDir())
			defer dst.Close()
			var imported, pending, dups int
			for _, data := range tc.order() {
				st, err := dst.ImportChunk(data)
				if err != nil {
					t.Fatal(err)
				}
				imported += st.Imported
				pending += st.Pending
				dups += st.Duplicates
			}
			if imported != 6 || pending != 2 {
				t.Fatalf("imported %d / pending %d, want 6 / 2", imported, pending)
			}
			for id, want := range bodies {
				got, ok := dst.Lookup(id)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("%s: got %q ok=%v, want %q", id, got, ok, want)
				}
			}
		})
	}
}

// TestHandoffImportRejectsDamage: a truncated or bit-flipped chunk is
// refused whole — no prefix import that would hide the damage.
func TestHandoffImportRejectsDamage(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	fillLedger(t, src, 3, 0)
	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := chunks[0].Data

	dst, _ := newTestLedger(t, t.TempDir())
	defer dst.Close()
	if _, err := dst.ImportChunk(data[:len(data)-3]); err == nil {
		t.Fatal("truncated chunk imported")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := dst.ImportChunk(flipped); err == nil {
		t.Fatal("bit-flipped chunk imported")
	}
	if ids := dst.CompletedIDs(); len(ids) != 0 {
		t.Fatalf("damaged chunks left a partial import: %v", ids)
	}
}

// TestHandoffImportCrashReplay: kill -9 on the importer. Before the
// chunk ack (ImportChunk returning) nothing is promised; after it the
// entries must survive the crash, and replaying the same chunk against
// the recovered ledger — what a source that never saw the ack does —
// converges as pure duplicates.
func TestHandoffImportCrashReplay(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	bodies := fillLedger(t, src, 5, 1)
	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}

	inj, err := faults.NewInjector(faults.Config{Seed: 11, TornWriteRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.NewCrashFS(inj)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dst, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{
		Dir:      dir,
		OpenFile: func(path string) (journal.File, error) { return fs.Open(path) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := dst.ImportChunk(c.Data); err != nil {
			t.Fatal(err)
		}
	}
	// The acks above are durable promises; kill -9 now.
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}

	dst2, rec, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer dst2.Close()
	if rec.Results != 5 || len(rec.Pending) != 1 {
		t.Fatalf("recovered %d results / %d pending, want 5 / 1", rec.Results, len(rec.Pending))
	}
	for id, want := range bodies {
		got, ok := dst2.Lookup(id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("acked import lost to crash: %s got %q ok=%v", id, got, ok)
		}
	}
	// Source never saw the ack (response lost in the crash): it replays
	// the full transfer. Everything must dedup.
	for _, c := range chunks {
		st, err := dst2.ImportChunk(c.Data)
		if err != nil {
			t.Fatal(err)
		}
		if st.Imported != 0 || st.Pending != 0 || st.Duplicates != c.Entries {
			t.Fatalf("post-crash replay re-imported: %+v (chunk %d entries)", st, c.Entries)
		}
	}
}

// TestExportConcurrentCompact: export iteration (ExportRange,
// CompletedIDs, LookupVerdicts) interleaved with compaction under
// -race — both capture the live entries through Ledger.live, one under
// the journal's write locks. Every ID completed before an export begins
// must appear in that export; compaction running mid-export must never
// drop captured records.
func TestExportConcurrentCompact(t *testing.T) {
	l, _ := newTestLedger(t, t.TempDir())
	defer l.Close()
	fillLedger(t, l, 64, 4)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, id := range l.CompletedIDs() {
				if _, ok := l.LookupVerdicts(id); !ok {
					t.Errorf("CompletedIDs listed %s but LookupVerdicts missed it", id)
					return
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		chunks, err := l.ExportRange(func(id string) bool { return strings.HasPrefix(id, "done-") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, c := range chunks {
			got += c.Entries
		}
		if got != 64 {
			t.Fatalf("export round %d saw %d completed entries, want 64", i, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestImportConcurrentCompact: chunks imported while a loop compacts.
// An import installs each entry in memory before it appends the record,
// so a compaction that seals the record's segment rewrites the entry;
// with the append first, a compaction between the two steps deleted the
// entry's only copy and the chunk's ack promised something the journal
// no longer held. After a close and reopen every entry of every
// acknowledged chunk must be there, byte for byte.
func TestImportConcurrentCompact(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	bodies := fillLedger(t, src, 96, 8)
	chunks, err := src.ExportRange(func(string) bool { return true }, 256)
	if err != nil {
		t.Fatal(err)
	}
	const importers = 4
	if len(chunks) < 4*importers {
		t.Fatalf("only %d chunks to spread over %d importers", len(chunks), importers)
	}

	dir := t.TempDir()
	dst, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				compacted <- n
				return
			default:
			}
			if err := dst.Compact(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < importers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(chunks); i += importers {
				if _, err := dst.ImportChunk(chunks[i].Data); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := <-compacted; n == 0 {
		t.Fatal("no compaction ran alongside the imports; the test is vacuous")
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}

	dst2, rec, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer dst2.Close()
	for id, want := range bodies {
		if got, ok := dst2.Lookup(id); !ok || !bytes.Equal(got, want) {
			t.Fatalf("acknowledged import of %s lost to a concurrent compaction (held: %v)", id, ok)
		}
	}
	if len(rec.Pending) != 8 {
		t.Fatalf("recovered %d pending imports, want 8", len(rec.Pending))
	}
}

// TestImportJournalFailureIsNotHeld: an entry whose append failed is
// not left installed — otherwise the source's retry of the chunk would
// skip it as a duplicate and be acknowledged for an entry the journal
// never received.
func TestImportJournalFailureIsNotHeld(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	fillLedger(t, src, 3, 1)
	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var failWrites atomic.Bool
	dst, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir(), OpenFile: func(path string) (journal.File, error) {
		f, err := os.Create(path)
		return &flakyFile{File: f, failWrites: &failWrites}, err
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	// done-00, the chunk's first entry, is also accepted here and waiting
	// to be classified: the imported result resolves it, so the failed
	// import has to hand it back to whoever classifies pending batches.
	if err := acceptEvents(dst, "done-00", sharedFixture(t).replay[:1]); err != nil {
		t.Fatal(err)
	}
	failWrites.Store(true)
	if _, err := dst.ImportChunk(chunks[0].Data); err == nil {
		t.Fatal("import acknowledged although the journal refused the records")
	}
	if pending, completed := dst.Counts(); pending != 1 || completed != 0 || !dst.IsPending("done-00") {
		t.Fatalf("failed import left %d pending and %d completed entries, done-00 pending: %v; want only the local accept",
			pending, completed, dst.IsPending("done-00"))
	}
	failWrites.Store(false)
	st, err := dst.ImportChunk(chunks[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 3 || st.Pending != 1 || st.Duplicates != 0 {
		t.Fatalf("retry after the failure = %+v, want everything imported afresh", st)
	}
}

// TestImportKeepsHeldResult: first wins. A result this ledger already
// holds keeps its body when a chunk brings another one for the same ID
// (a failover reclassified the batch across a rule reload), in memory
// and — since the skipped record is not journaled either — after a
// restart, so retransmits stay byte-identical.
func TestImportKeepsHeldResult(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	if _, err := src.Result("x-1", []VerdictRecord{{Type: "verdict", File: "x", Verdict: "malicious"}}); err != nil {
		t.Fatal(err)
	}
	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dst, _ := newTestLedger(t, dir)
	want, err := dst.Result("x-1", []VerdictRecord{{Type: "verdict", File: "x", Verdict: "benign"}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dst.ImportChunk(chunks[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicates != 1 || st.Imported != 0 {
		t.Fatalf("import of a held result = %+v, want one duplicate", st)
	}
	if got, _ := dst.Lookup("x-1"); !bytes.Equal(got, want) {
		t.Fatalf("import replaced the held body %q with %q", want, got)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	dst, _ = newTestLedger(t, dir)
	defer dst.Close()
	if got, _ := dst.Lookup("x-1"); !bytes.Equal(got, want) {
		t.Fatalf("after a restart the ledger answers %q, want %q", got, want)
	}
}

// blockingFile parks every Write until release is closed, announcing
// the first one on entered.
type blockingFile struct {
	journal.File
	entered chan<- struct{}
	once    *sync.Once
	release <-chan struct{}
}

func (f *blockingFile) Write(p []byte) (int, error) {
	f.once.Do(func() { close(f.entered) })
	<-f.release
	return f.File.Write(p)
}

// TestImportRetransmitWaitsForFirstCopy: a retransmit of a chunk whose
// first copy is still being appended is not acknowledged on the strength
// of the entry the first copy installed — its ack waits until that
// record is in the journal.
func TestImportRetransmitWaitsForFirstCopy(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	fillLedger(t, src, 1, 0)
	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dst, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir(), OpenFile: func(path string) (journal.File, error) {
		f, err := os.Create(path)
		return &blockingFile{File: f, entered: entered, once: &once, release: release}, err
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	acked := make(chan uint64, 2) // records in the journal when each import was acknowledged
	importOnce := func() {
		if _, err := dst.ImportChunk(chunks[0].Data); err != nil {
			t.Error(err)
		}
		acked <- dst.Stats().Appends
	}
	go importOnce()
	<-entered // the first copy has installed done-00 and is inside its append
	go importOnce()
	var early []uint64
	select {
	case n := <-acked:
		early = append(early, n)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	for i := len(early); i < 2; i++ {
		if n := <-acked; n != 1 {
			t.Errorf("import acknowledged with %d records journaled, want 1", n)
		}
	}
	if len(early) > 0 {
		t.Fatalf("a copy of the chunk was acknowledged with %d records journaled and the append still in flight", early[0])
	}
}

// TestSplitExport: an export stream split by destination imports, at
// each destination, exactly the entries sent there — bodies intact,
// each chunk naming the IDs inside it — and a damaged stream is refused
// whole.
func TestSplitExport(t *testing.T) {
	src, _ := newTestLedger(t, t.TempDir())
	defer src.Close()
	bodies := fillLedger(t, src, 12, 3)
	chunks, err := src.ExportRange(func(string) bool { return true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, c := range chunks {
		stream = append(stream, c.Data...)
	}
	// Even-numbered entries go to "a", IDs ending in 1 stay behind, the
	// rest go to "b".
	dest := func(id string) string {
		switch id[len(id)-1] {
		case '0', '2', '4', '6', '8':
			return "a"
		case '1':
			return ""
		}
		return "b"
	}
	groups, err := SplitExport(stream, dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("split produced %d destinations, want a and b", len(groups))
	}
	for to, chunks := range groups {
		dst, _ := newTestLedger(t, t.TempDir())
		defer dst.Close()
		sent := map[string]bool{}
		for _, c := range chunks {
			if len(c.IDs) != c.Entries {
				t.Fatalf("%s: chunk %d names %d IDs for %d entries", to, c.Seq, len(c.IDs), c.Entries)
			}
			st, err := dst.ImportChunk(c.Data)
			if err != nil {
				t.Fatal(err)
			}
			if st.Imported+st.Pending != c.Entries {
				t.Fatalf("%s: chunk %d imported %+v of %d entries", to, c.Seq, st, c.Entries)
			}
			for _, id := range c.IDs {
				sent[id] = true
			}
		}
		for id, want := range bodies {
			got, ok := dst.Lookup(id)
			if ok != (dest(id) == to) || ok != sent[id] {
				t.Fatalf("%s: holds %s = %v (named in a chunk: %v), but it belongs to %q", to, id, ok, sent[id], dest(id))
			}
			if ok && !bytes.Equal(got, want) {
				t.Fatalf("%s: body of %s changed in the split", to, id)
			}
		}
		for i := 0; i < 3; i++ {
			if id := fmt.Sprintf("pend-%02d", i); dst.IsPending(id) != (dest(id) == to) {
				t.Fatalf("%s: pending %s is on the wrong side of the split", to, id)
			}
		}
	}
	if _, err := SplitExport(stream[:len(stream)-3], dest); err == nil {
		t.Fatal("a stream with a torn last frame was split")
	}
}
