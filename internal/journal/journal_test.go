package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/leaktest"
)

// reopen recovers dir with the given shard count (closing nothing, so it
// also simulates a crash), failing the test on error.
func reopen(t *testing.T, dir string, shards int) (*Sharded, *Recovered) {
	t.Helper()
	s, rec, err := OpenSharded(Options{Dir: dir}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// appendRec appends data durably under key.
func appendRec(s *Sharded, key string, kind byte, data []byte) error {
	return s.AppendFunc(key, kind, func(dst []byte) []byte { return append(dst, data...) })
}

// appendAsync appends data under key without the durability wait.
func appendAsync(s *Sharded, key string, kind byte, data []byte) error {
	return s.AppendAsyncFunc(key, kind, func(dst []byte) []byte { return append(dst, data...) })
}

// rewrite compacts s down to one kind-1 record per live entry (key and
// payload both the entry), captured up front: only safe when nothing
// appends concurrently. It returns the bytes the rewrite appended.
func rewrite(s *Sharded, live ...string) (int64, error) {
	return s.Compact(func(put func(key string, kind byte, build func(dst []byte) []byte) error) error {
		for _, e := range live {
			if err := put(e, 1, func(dst []byte) []byte { return append(dst, e...) }); err != nil {
				return err
			}
		}
		return nil
	})
}

// crashFS returns a crashable filesystem with the given fault mix.
func crashFS(t *testing.T, cfg faults.Config) *faults.CrashFS {
	t.Helper()
	inj, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.NewCrashFS(inj)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestAppendRecoverRoundTrip: every acknowledged record survives a
// reopen, in order, with kind and payload intact.
func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := reopen(t, dir, 1)
	if len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 100; i++ {
		if err := appendRec(s, "k", byte(1+i%3), []byte(fmt.Sprintf("rec-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2 := reopen(t, dir, 1)
	if len(rec2.Records) != 100 {
		t.Fatalf("recovered %d records, want 100", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.Kind != byte(1+i%3) || string(r.Data) != fmt.Sprintf("rec-%03d", i) {
			t.Fatalf("record %d = kind %d %q", i, r.Kind, r.Data)
		}
	}
	if rec2.TornTail != 0 {
		t.Fatalf("clean close recovered torn tail of %d bytes", rec2.TornTail)
	}
}

// TestRootLevelFlatFilesRefused: a directory holding segment or
// snapshot files at its root (the single-WAL layout and the compaction
// snapshot this package once wrote) is refused with an error naming the
// file, not half-read.
func TestRootLevelFlatFilesRefused(t *testing.T) {
	for _, name := range []string{"wal-00000001.seg", "state-00000002.snap", "sharded-00000003.snap"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), AppendFrame(nil, 1, []byte("old")), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3} {
			_, _, err := OpenSharded(Options{Dir: dir}, shards)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("OpenSharded(%d) over root-level %s = %v, want a refusal naming it", shards, name, err)
			}
		}
	}
}

// TestRecoveryAfterCrashDiscardsOnlyUnsyncedTail: synced records
// survive a kill -9 (with a torn tail of unsynced bytes on disk);
// async-appended records after the last sync may be lost but never
// corrupt recovery.
func TestRecoveryAfterCrashDiscardsOnlyUnsyncedTail(t *testing.T) {
	fs := crashFS(t, faults.Config{Seed: 5, TornWriteRate: 1})
	dir := t.TempDir()
	s, _, err := OpenSharded(Options{
		Dir:      dir,
		OpenFile: func(path string) (File, error) { return fs.Open(path) },
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := appendRec(s, "k", 1, []byte(fmt.Sprintf("durable-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Unsynced tail: lost or torn at crash, never acknowledged.
	for i := 0; i < 20; i++ {
		if err := appendAsync(s, "k", 2, []byte(fmt.Sprintf("volatile-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.TornKept == 0 {
		t.Fatal("TornWriteRate 1 left no torn tail; the test is vacuous")
	}
	_, rec := reopen(t, dir, 1)
	if len(rec.Records) < 40 {
		t.Fatalf("recovered %d records, want >= 40 durable ones", len(rec.Records))
	}
	for i := 0; i < 40; i++ {
		if string(rec.Records[i].Data) != fmt.Sprintf("durable-%02d", i) {
			t.Fatalf("durable record %d = %q", i, rec.Records[i].Data)
		}
	}
	// Any extra records are a valid prefix of the async tail.
	for i, r := range rec.Records[40:] {
		if string(r.Data) != fmt.Sprintf("volatile-%02d", i) {
			t.Fatalf("async record %d = %q", i, r.Data)
		}
	}
	if rec.TornTail == 0 {
		t.Fatal("expected a torn tail after a crash with unsynced bytes")
	}
}

// TestPartialFsyncSurfacesError: an injected partial fsync fails the
// append, and recovery still never yields a record out of order.
func TestPartialFsyncSurfacesError(t *testing.T) {
	fs := crashFS(t, faults.Config{Seed: 3, SyncFailRate: 0.5})
	dir := t.TempDir()
	s, _, err := OpenSharded(Options{
		Dir:      dir,
		OpenFile: func(path string) (File, error) { return fs.Open(path) },
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	acked := 0
	for i := 0; i < 50; i++ {
		if err := appendRec(s, "k", 1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			failures++
		} else {
			acked++
		}
	}
	if failures == 0 {
		t.Fatal("SyncFailRate 0.5 injected nothing; the test is vacuous")
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 1)
	// Every record present must be a strict prefix-ordered subset.
	for i, r := range rec.Records {
		if string(r.Data) != fmt.Sprintf("r-%02d", i) {
			t.Fatalf("record %d = %q: recovery reordered or corrupted", i, r.Data)
		}
	}
	if len(rec.Records) < acked {
		t.Fatalf("recovered %d records but %d were acknowledged durable", len(rec.Records), acked)
	}
}

// TestSegmentRotation: records spanning many segments all recover.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSharded(Options{Dir: dir, SegmentBytes: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := appendRec(s, "k", 1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Rotations == 0 {
		t.Fatal("no rotations at 256-byte segments; the test is vacuous")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 1)
	if len(rec.Records) != 64 {
		t.Fatalf("recovered %d records across segments, want 64", len(rec.Records))
	}
	if rec.Segments < 2 {
		t.Fatalf("replayed %d segments, want >= 2", rec.Segments)
	}
}

// TestCorruptMidFileStopsReplay: flipping a byte in the middle of a
// segment truncates recovery at the corruption, never past it.
func TestCorruptMidFileStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 1)
	for i := 0; i < 20; i++ {
		if err := appendRec(s, "k", 1, []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shardDirName(0), segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 1)
	if len(rec.Records) >= 20 {
		t.Fatal("recovery read past a corrupt frame")
	}
	for i, r := range rec.Records {
		if string(r.Data) != fmt.Sprintf("rec-%02d", i) {
			t.Fatalf("record %d = %q after corruption", i, r.Data)
		}
	}
	if rec.TornTail == 0 {
		t.Fatal("corruption not reported as torn bytes")
	}
}

// slowSyncFile gives fsync a real duration (tmpfs syncs are instant),
// opening the window in which concurrent appenders pile up behind one
// group commit.
type slowSyncFile struct{ f *os.File }

func (s *slowSyncFile) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s *slowSyncFile) Close() error                { return s.f.Close() }
func (s *slowSyncFile) Sync() error {
	time.Sleep(200 * time.Microsecond)
	return s.f.Sync()
}

func openSlowSync(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{f: f}, nil
}

// TestConcurrentAppendGroupCommit: concurrent appenders on one shard
// share fsyncs (group commit) and every acknowledged record recovers.
func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSharded(Options{Dir: dir, OpenFile: openSlowSync}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := appendRec(s, "k", 1, []byte(fmt.Sprintf("w%d-%03d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("no group commit: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 1)
	if len(rec.Records) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*perWriter)
	}
}

// nopFile discards writes and syncs instantly, so the commit path's own
// synchronization is the only thing a test over it exercises.
type nopFile struct{}

func (nopFile) Write(p []byte) (int, error) { return len(p), nil }
func (nopFile) Sync() error                 { return nil }
func (nopFile) Close() error                { return nil }

// TestGroupCommitNeverMissesAPublishedRecord: with appenders and a
// concurrent Sync hammering one shard whose fsyncs cost nothing, every
// durable append must be acknowledged without error. The sync path
// takes its target from the same counter an append publishes with; a
// second, later-published mark (what this package once kept) let the
// loop target a record it then failed to cover, surfacing as `sync:
// record N not covered` — a 500 at the serving layer.
func TestGroupCommitNeverMissesAPublishedRecord(t *testing.T) {
	s, _, err := OpenSharded(Options{
		Dir:      t.TempDir(),
		OpenFile: func(string) (File, error) { return nopFile{}, nil },
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 6, 20000
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte("x")
			for i := 0; i < perWriter; i++ {
				if err := appendRec(s, "k", 1, payload); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		for !stop.Load() {
			if err := s.Sync(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-syncDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
}

// TestOversizeRecordRejected: a record recovery could never read back
// (a length above maxFrameSize reads as corruption) is refused at the
// write path instead of being acknowledged and silently lost.
func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 1)
	if err := appendRec(s, "k", 1, make([]byte, maxFrameSize)); err == nil {
		t.Fatal("oversize durable append acknowledged")
	}
	if err := appendAsync(s, "k", 1, make([]byte, maxFrameSize)); err == nil {
		t.Fatal("oversize async append accepted")
	}
	// The rejection leaves the journal fully usable.
	if err := appendRec(s, "k", 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 1)
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "ok" {
		t.Fatalf("recovered %+v, want exactly the in-bounds record", rec.Records)
	}
	if rec.TornTail != 0 {
		t.Fatalf("oversize rejection left %d torn bytes on disk", rec.TornTail)
	}
}

// TestLiveBytesAcrossRotations: the compaction trigger accumulates
// across segment rotations (so a threshold above one segment's size is
// reachable), restarts at the rewrite's size on compaction, and is
// seeded from the on-disk backlog at open.
func TestLiveBytesAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSharded(Options{Dir: dir, SegmentBytes: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := appendRec(s, "k", 1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Rotations == 0 {
		t.Fatal("no rotations at 256-byte segments; the test is vacuous")
	}
	if lb := s.LiveBytes(); lb <= 256 {
		t.Fatalf("LiveBytes = %d, capped at one segment — the compaction trigger can never fire", lb)
	}
	rewritten, err := rewrite(s, "live-a", "live-b")
	if err != nil {
		t.Fatal(err)
	}
	if lb := s.LiveBytes(); rewritten <= 0 || lb != rewritten {
		t.Fatalf("LiveBytes = %d after a compaction that rewrote %d bytes, want exactly those", lb, rewritten)
	}
	for i := 0; i < 8; i++ {
		if err := appendRec(s, "k", 1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	postCompact := s.LiveBytes()
	if postCompact <= rewritten {
		t.Fatalf("LiveBytes = %d after post-compaction appends on a %d-byte rewrite", postCompact, rewritten)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := reopen(t, dir, 1)
	if lb := s2.LiveBytes(); lb < postCompact {
		t.Fatalf("reopen seeded LiveBytes = %d, want >= %d (the un-compacted backlog)", lb, postCompact)
	}
}

// TestCompactEmitsUnderWriteLocks: the ledger protocol in miniature —
// writers mark an ID in shared state *before* appending its record, a
// compactor rewrites that state via Compact. Because emit runs under
// the write locks, after the seal, any record already in a sealed
// segment has its state mark visible to emit; a state read before the
// locks can miss a record whose append beats the rotation, deleting its
// only durable copy. After recovery every ID must be in the log, and
// the journal directory holds segments and nothing else.
func TestCompactEmitsUnderWriteLocks(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 2)
	const writers, perWriter = 4, 50
	var stateMu sync.Mutex
	var state []string
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				stateMu.Lock()
				state = append(state, id)
				stateMu.Unlock()
				if err := appendRec(s, id, 1, []byte(id)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_, err := s.Compact(func(put func(key string, kind byte, build func(dst []byte) []byte) error) error {
				stateMu.Lock()
				captured := state[:len(state):len(state)]
				stateMu.Unlock()
				for _, id := range captured {
					if err := put(id, 1, func(dst []byte) []byte { return append(dst, id...) }); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 2)
	present := make(map[string]bool)
	for _, r := range rec.Records {
		present[string(r.Data)] = true
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if id := fmt.Sprintf("w%d-%03d", w, i); !present[id] {
				t.Fatalf("record %s lost: not rewritten and its segment was deleted", id)
			}
		}
	}
	onlySegments(t, dir)
}

// onlySegments fails the test unless dir holds shard directories of
// wal-*.seg files and nothing else.
func onlySegments(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		var idx uint64
		pattern := "wal-%08d.seg"
		if d.IsDir() {
			pattern = "shard-%03d"
		}
		if n, _ := fmt.Sscanf(d.Name(), pattern, &idx); n != 1 {
			t.Errorf("journal directory holds %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTornTailCutAtOpen: records acknowledged after a crash must
// survive the next restart too. The crash leaves a torn tail on the
// newest segment; the reopened journal appends to the next segment, so
// unless the tear is cut off at open the second restart finds it in the
// middle of the shard's history and stops replaying before everything
// acknowledged since.
func TestTornTailCutAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 1)
	for i := 0; i < 3; i++ {
		if err := appendRec(s, "k", 1, []byte(fmt.Sprintf("first-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	truncateShardTail(t, dir, 0, 3)

	s2, rec := reopen(t, dir, 1)
	if len(rec.Records) != 2 || rec.TornTail == 0 {
		t.Fatalf("after the tear: %d records, %d torn bytes; want 2 records and a torn tail", len(rec.Records), rec.TornTail)
	}
	for i := 0; i < 2; i++ {
		if err := appendRec(s2, "k", 1, []byte(fmt.Sprintf("second-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec = reopen(t, dir, 1)
	want := []string{"first-0", "first-1", "second-0", "second-1"}
	if len(rec.Records) != len(want) || rec.TornTail != 0 {
		t.Fatalf("second restart recovered %d records and %d torn bytes, want %d and 0: records acknowledged after the first restart are gone", len(rec.Records), rec.TornTail, len(want))
	}
	for i, r := range rec.Records {
		if string(r.Data) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r.Data, want[i])
		}
	}
}

// TestDoubleClose: Close is idempotent, and appends after Close fail.
func TestDoubleClose(t *testing.T) {
	s, _ := reopen(t, t.TempDir(), 1)
	if err := appendRec(s, "k", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := appendRec(s, "k", 1, []byte("y")); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if _, err := rewrite(s, "z"); err == nil {
		t.Fatal("compaction after Close succeeded")
	}
}

// segmentSizes returns the size of every segment file under dir, by path.
func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64, len(paths))
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[path] = fi.Size()
	}
	return sizes
}

// TestPreallocatedSegments: on real files a segment holds its reserved
// size while it is the active one and exactly its frames once sealed,
// by rotation or by Close; a process that dies without sealing leaves
// the reservation behind as zeros, which recovery reads as the end of
// the segment — no torn bytes, every record back, the replay debt
// counted in frames and not in file sizes — and cuts off; and zeros
// behind an older segment hide nothing that follows it.
func TestPreallocatedSegments(t *testing.T) {
	const segBytes = 1 << 10
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: segBytes}
	s, _, err := OpenSharded(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64
	for i := 0; i < 30; i++ { // 113-byte frames: three rotations and a part-filled segment
		if err := appendRec(s, "k", 1, bytes.Repeat([]byte{byte('a' + i)}, 96)); err != nil {
			t.Fatal(err)
		}
		frames += frameHeaderSize + 1 + seqPrefixSize + 96
	}
	if st := s.Stats(); st.Rotations < 2 {
		t.Fatalf("%d rotations; the test is vacuous", st.Rotations)
	}
	active := filepath.Join(dir, shardDirName(0), segmentName(s.shards[0].segIndex))
	var sealed int64
	for path, size := range segmentSizes(t, dir) {
		switch {
		case path != active:
			sealed += size
			if size > segBytes || size%113 != 0 {
				t.Fatalf("sealed segment %s is %d bytes: not cut down to its frames", path, size)
			}
		case size != segBytes && size != frames-sealed:
			// Either reserved in full, or (no fallocate here) grown by appends.
			t.Fatalf("active segment is %d bytes, want the %d reserved", size, segBytes)
		}
	}
	preallocated := segmentSizes(t, dir)[active] == segBytes

	// Die without sealing; an older segment gets its reservation back too.
	if err := os.Truncate(filepath.Join(dir, shardDirName(0), segmentName(1)), segBytes); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := OpenSharded(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 30 || rec.TornTail != 0 {
		t.Fatalf("recovered %d records and %d torn bytes over zero tails, want 30 and 0", len(rec.Records), rec.TornTail)
	}
	if lb := s2.LiveBytes(); lb != frames {
		t.Fatalf("LiveBytes = %d after reopen, want the %d bytes of frames replayed", lb, frames)
	}
	if size := segmentSizes(t, dir)[active]; preallocated && size >= segBytes {
		t.Fatalf("recovery left the dead process's newest segment at %d bytes", size)
	}
	s.Close() // the dead process's handle; its trim finds the size recovery left

	if err := appendRec(s2, "k", 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for path, size := range segmentSizes(t, dir) {
		if path != filepath.Join(dir, shardDirName(0), segmentName(1)) {
			onDisk += size
		}
	}
	if want := frames - 9*113 + frameHeaderSize + 1 + seqPrefixSize + 5; onDisk != want {
		t.Fatalf("segments hold %d bytes after Close, want the %d bytes of their frames", onDisk, want)
	}
	_, rec = reopen(t, dir, 1)
	if len(rec.Records) != 31 || string(rec.Records[30].Data) != "after" || rec.TornTail != 0 {
		t.Fatalf("final reopen: %d records, %d torn bytes", len(rec.Records), rec.TornTail)
	}
}

// gatedSyncFile holds its first Sync until released and then fails it;
// later Syncs succeed. It has no descriptor, so the journal syncs it
// through this method.
type gatedSyncFile struct {
	nopFile
	syncs   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (g *gatedSyncFile) Sync() error {
	if g.syncs.Add(1) > 1 {
		return nil
	}
	close(g.entered)
	<-g.release
	return fmt.Errorf("injected fsync failure")
}

// TestFailedFsyncReachesEveryFollower: the leader's failed fsync is the
// error of every appender whose record it tried to cover — the leader
// and the followers that waited on it alike — none of them runs a
// second fsync on its own behalf, and none is acknowledged by the
// successful fsync a later appender leads. An appender whose record was
// written after the failing fsync took its target is not covered by it
// and is acknowledged by its own.
func TestFailedFsyncReachesEveryFollower(t *testing.T) {
	g := &gatedSyncFile{entered: make(chan struct{}), release: make(chan struct{})}
	s, _, err := OpenSharded(Options{Dir: t.TempDir(), OpenFile: func(string) (File, error) { return g, nil }}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.shards[0]
	const covered = 6
	var seqs []uint64
	for i := 0; i < covered; i++ {
		_, seq, err := s.write("k", 1, func(dst []byte) []byte { return append(dst, 'x') })
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	errs := make(chan error, covered)
	for _, seq := range seqs {
		go func() { errs <- w.waitDurable(seq) }()
	}
	<-g.entered // one of them leads; the rest wait on it or are about to
	late := make(chan error, 1)
	go func() { late <- appendRec(s, "k", 1, []byte("late")) }()
	leaktest.Until(t, 5*time.Second, "the late append is written", func() bool { return s.Stats().Appends > covered })
	close(g.release)
	for i := 0; i < covered; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a record the failed fsync tried to cover was acknowledged")
		}
	}
	if err := <-late; err != nil {
		t.Fatalf("the record written after the failed fsync took its target = %v, want its own fsync's ack", err)
	}
	if n := g.syncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs, want 2: the failed one and the late appender's", n)
	}
	// The later fsync succeeded past them; they stay failed.
	for _, seq := range seqs {
		if err := w.waitDurable(seq); err == nil {
			t.Fatalf("record %d acknowledged by a later fsync after its own failed", seq)
		}
	}
	if n := g.syncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs after re-waiting, want still 2: a failed fsync is not retried for its waiters", n)
	}
	if bs := s.SyncBatches(); bs.Count != 1 || bs.Sum != covered+1 {
		t.Fatalf("sync batch histogram count=%d sum=%d, want one fsync retiring all %d records", bs.Count, bs.Sum, covered+1)
	}
}
