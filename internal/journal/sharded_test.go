package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
)

// appendKeyed appends count records with deterministic keys and
// payloads and returns, per shard, the global indices routed to it.
func appendKeyed(t *testing.T, s *Sharded, n, count int) [][]int {
	t.Helper()
	perShard := make([][]int, n)
	for i := 0; i < count; i++ {
		key := fmt.Sprintf("k-%03d", i)
		if err := appendRec(s, key, byte(1+i%3), []byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
		si := ShardIndex(key, n)
		perShard[si] = append(perShard[si], i)
	}
	return perShard
}

// TestShardedMergeRestoresAppendOrder: records striped over 4 shards
// recover in exactly the order they were appended — the merge by
// sequence number is equivalent to one file's physical order.
func TestShardedMergeRestoresAppendOrder(t *testing.T) {
	const n, count = 4, 60
	dir := t.TempDir()
	s, _ := reopen(t, dir, n)
	appendKeyed(t, s, n, count)
	// The stripes must actually spread: a single hot shard would make
	// the merge trivially file-ordered.
	busy := 0
	for _, st := range s.ShardStats() {
		if st.Appends > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards received records; the merge test is vacuous", busy)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, n)
	if len(rec.Records) != count {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), count)
	}
	for i, r := range rec.Records {
		if r.Kind != byte(1+i%3) || string(r.Data) != fmt.Sprintf("rec-%04d", i) {
			t.Fatalf("position %d = kind %d %q: merge lost the append order", i, r.Kind, r.Data)
		}
	}
}

// newestSegment returns the path of the newest segment in shard si's
// directory ("" if it has none).
func newestSegment(t *testing.T, dir string, si int) string {
	t.Helper()
	sdir := filepath.Join(dir, shardDirName(si))
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if _, ok := matchName(e.Name(), segmentFormat); ok {
			newest = filepath.Join(sdir, e.Name())
		}
	}
	return newest
}

// truncateShardTail cuts up to n bytes off the newest segment in shard
// si's directory — the on-disk shape of a crash that tore that shard's
// tail. It reports whether there was a segment to tear.
func truncateShardTail(t *testing.T, dir string, si int, n int64) bool {
	t.Helper()
	newest := newestSegment(t, dir, si)
	if newest == "" {
		return false
	}
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, max(fi.Size()-n, 0)); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestShardedTornTailsOnTwoShards: tearing the tails of two shards
// loses exactly those shards' trailing records — every other record
// survives, and the merge keeps the survivors in global append order.
func TestShardedTornTailsOnTwoShards(t *testing.T) {
	const n, count = 4, 60
	dir := t.TempDir()
	s, _ := reopen(t, dir, n)
	perShard := appendKeyed(t, s, n, count)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the two busiest shards. Each record frame is
	// frameHeaderSize + kind + 8-byte sequence + 8-byte payload = 25
	// bytes; cutting 2 frames + 3 bytes tears a third frame mid-payload,
	// so each torn shard loses exactly its last 3 records.
	const frameSize = frameHeaderSize + 1 + seqPrefixSize + 8
	torn := []int{-1, -1}
	for si := range perShard {
		if torn[0] < 0 || len(perShard[si]) > len(perShard[torn[0]]) {
			torn[1] = torn[0]
			torn[0] = si
		} else if torn[1] < 0 || len(perShard[si]) > len(perShard[torn[1]]) {
			torn[1] = si
		}
	}
	lost := make(map[int]bool)
	for _, si := range torn {
		if len(perShard[si]) < 4 {
			t.Fatalf("shard %d holds only %d records; pick a bigger corpus", si, len(perShard[si]))
		}
		truncateShardTail(t, dir, si, 2*frameSize+3)
		ids := perShard[si]
		for _, id := range ids[len(ids)-3:] {
			lost[id] = true
		}
	}

	_, rec := reopen(t, dir, n)
	if rec.TornTail == 0 {
		t.Fatal("mid-frame truncation not reported as torn bytes")
	}
	var want []int
	for i := 0; i < count; i++ {
		if !lost[i] {
			want = append(want, i)
		}
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d (all minus the 6 torn-off)", len(rec.Records), len(want))
	}
	for pos, id := range want {
		r := rec.Records[pos]
		if r.Kind != byte(1+id%3) || string(r.Data) != fmt.Sprintf("rec-%04d", id) {
			t.Fatalf("position %d = kind %d %q, want record %d: merge lost order", pos, r.Kind, r.Data, id)
		}
	}
}

// TestShardedCrashDurablePrefix: under an injected crash filesystem,
// every record acknowledged as durable survives recovery across all
// shards, in order; async records may be lost but never corrupt the
// merge.
func TestShardedCrashDurablePrefix(t *testing.T) {
	fs := crashFS(t, faults.Config{Seed: 11, TornWriteRate: 1})
	dir := t.TempDir()
	const n = 3
	s, _, err := OpenSharded(Options{
		Dir:      dir,
		OpenFile: func(path string) (File, error) { return fs.Open(path) },
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := appendRec(s, fmt.Sprintf("k-%03d", i), 1, []byte(fmt.Sprintf("durable-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := appendAsync(s, fmt.Sprintf("a-%03d", i), 2, []byte(fmt.Sprintf("volatile-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, n)
	durable := 0
	for _, r := range rec.Records {
		if r.Kind == 1 {
			if string(r.Data) != fmt.Sprintf("durable-%02d", durable) {
				t.Fatalf("durable record %d = %q: lost or reordered", durable, r.Data)
			}
			durable++
		}
	}
	if durable != 40 {
		t.Fatalf("recovered %d durable records, want all 40 acknowledged ones", durable)
	}
}

// TestShardedCompaction: a compaction replaces every shard's history
// with the live entries, as ordinary records; recovery sees them,
// in emit order, followed by the post-compaction records, and the
// sealed segments are gone.
func TestShardedCompaction(t *testing.T) {
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		s, _ := reopen(t, dir, n)
		appendKeyed(t, s, n, 20)
		before := s.Stats()
		live := []string{"live-c", "live-a", "live-b"}
		rewritten, err := rewrite(s, live...)
		if err != nil {
			t.Fatal(err)
		}
		// The rewrite is ordinary appends, counted as such.
		if st := s.Stats(); st.Appends != before.Appends+3 || int64(st.Bytes-before.Bytes) != rewritten || st.Compactions != 1 {
			t.Fatalf("stats %+v after rewriting %d bytes on top of %+v", st, rewritten, before)
		}
		for i := 0; i < 4; i++ {
			if err := appendRec(s, fmt.Sprintf("post-%d", i), 2, []byte(fmt.Sprintf("new-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		_, rec := reopen(t, dir, n)
		want := append(live, "new-0", "new-1", "new-2", "new-3")
		if len(rec.Records) != len(want) {
			t.Fatalf("recovered %d records, want the 3 rewritten and the 4 appended since", len(rec.Records))
		}
		for i, r := range rec.Records {
			if string(r.Data) != want[i] {
				t.Fatalf("record %d = %q, want %q", i, r.Data, want[i])
			}
		}
		for si := 0; si < n; si++ {
			if _, err := os.Stat(filepath.Join(dir, shardDirName(si), segmentName(1))); !os.IsNotExist(err) {
				t.Fatalf("compaction left shard %d's sealed segment behind (stat: %v)", si, err)
			}
		}
		onlySegments(t, dir)
	}
}

// TestFailedCompactionKeepsSealedSegments: an emit that fails midway
// and a rewrite whose fsync fails both leave every sealed segment in
// place, so the history the rewrite would have replaced still recovers
// — under whatever part of the rewrite reached the fresh segments.
func TestFailedCompactionKeepsSealedSegments(t *testing.T) {
	const n, count = 2, 12
	var failSync atomic.Bool
	dir := t.TempDir()
	s, _, err := OpenSharded(Options{Dir: dir, OpenFile: func(path string) (File, error) {
		f, err := os.Create(path)
		return &failingSyncFile{File: f, fail: &failSync}, err
	}}, n)
	if err != nil {
		t.Fatal(err)
	}
	appendKeyed(t, s, n, count)
	_, err = s.Compact(func(put func(key string, kind byte, build func(dst []byte) []byte) error) error {
		if err := put("k-000", 1, func(dst []byte) []byte { return append(dst, "rec-0000"...) }); err != nil {
			return err
		}
		return fmt.Errorf("state capture failed")
	})
	if err == nil {
		t.Fatal("Compact swallowed the emit error")
	}
	_, err = s.Compact(func(put func(key string, kind byte, build func(dst []byte) []byte) error) error {
		failSync.Store(true) // after the seal: the rewrite's own fsync is the one that fails
		return put("k-001", 1, func(dst []byte) []byte { return append(dst, "rec-0001"...) })
	})
	if err == nil {
		t.Fatal("Compact reported success although the rewrite was never made durable")
	}
	failSync.Store(false)
	if st := s.Stats(); st.Compactions != 0 {
		t.Fatalf("Compactions = %d after two failed compactions", st.Compactions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, n)
	seen := make(map[string]bool)
	for _, r := range rec.Records {
		seen[string(r.Data)] = true
	}
	for i := 0; i < count; i++ {
		if !seen[fmt.Sprintf("rec-%04d", i)] {
			t.Fatalf("record %d lost to a failed compaction", i)
		}
	}
}

// failingSyncFile fails Sync while fail is set. It is not an *os.File,
// so the journal syncs it through this method.
type failingSyncFile struct {
	File
	fail *atomic.Bool
}

func (f *failingSyncFile) Sync() error {
	if f.fail.Load() {
		return fmt.Errorf("injected fsync failure")
	}
	return f.File.Sync()
}

// TestShardedShardCountGrowth: reopening with a higher shard count
// keeps every record (placement never moves, the merge makes it
// irrelevant) and routes new appends over the wider stripe set; an
// explicit lower count is overridden by the directories on disk.
func TestShardedShardCountGrowth(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 1)
	appendKeyed(t, s, 1, 30)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s4, rec := reopen(t, dir, 4)
	if got := len(s4.ShardStats()); got != 4 {
		t.Fatalf("%d shards after growth, want 4", got)
	}
	if len(rec.Records) != 30 {
		t.Fatalf("recovered %d records after growth, want 30", len(rec.Records))
	}
	for i := 30; i < 50; i++ {
		if err := appendRec(s4, fmt.Sprintf("k-%03d", i), byte(1+i%3), []byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s4.Close(); err != nil {
		t.Fatal(err)
	}

	// shards=1 cannot shrink a striped journal: the directories win.
	s1, rec2 := reopen(t, dir, 1)
	if got := len(s1.ShardStats()); got != 4 {
		t.Fatalf("%d shards when reopened with shards=1, want the on-disk 4", got)
	}
	if len(rec2.Records) != 50 {
		t.Fatalf("recovered %d records, want 50", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if string(r.Data) != fmt.Sprintf("rec-%04d", i) {
			t.Fatalf("record %d = %q: growth broke the global order", i, r.Data)
		}
	}
}

// TestShardedGroupCommitAcrossShards: concurrent keyed appends share
// fsyncs within each shard (the ack queue batches them) and the
// batch-size histogram sees multi-record syncs.
func TestShardedGroupCommitAcrossShards(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	s, _, err := OpenSharded(Options{Dir: dir, OpenFile: openSlowSync}, n)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 40
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				if err := appendRec(s, fmt.Sprintf("w%d-%03d", w, i), 1, []byte(fmt.Sprintf("w%d-%03d", w, i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("no group commit: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	bs := s.SyncBatches()
	if bs.Count == 0 || bs.Sum != uint64(writers*perWriter) {
		t.Fatalf("batch histogram count=%d sum=%d, want sum %d", bs.Count, bs.Sum, writers*perWriter)
	}
	if lag := s.ShardLag(); len(lag) != n {
		t.Fatalf("ShardLag returned %d shards, want %d", len(lag), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, n)
	if len(rec.Records) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*perWriter)
	}
}
