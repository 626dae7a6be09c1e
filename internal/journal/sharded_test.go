package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
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
