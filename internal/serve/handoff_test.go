package serve

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

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
	if rec.Pending != 8 {
		t.Fatalf("recovered %d pending imports, want 8", rec.Pending)
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
