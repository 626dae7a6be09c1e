package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
		var idx uint64
		if cnt, _ := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); cnt == 1 {
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

// TestShardedCompaction: a compaction collapses every shard's history
// into one root snapshot; recovery sees the snapshot plus only
// post-compaction records, and the covered segments are gone.
func TestShardedCompaction(t *testing.T) {
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		s, _ := reopen(t, dir, n)
		appendKeyed(t, s, n, 20)
		if err := compact(s, []byte("snapshot-state")); err != nil {
			t.Fatal(err)
		}
		if lb := s.LiveBytes(); lb != 0 {
			t.Fatalf("LiveBytes = %d after compaction, want 0", lb)
		}
		for i := 0; i < 4; i++ {
			if err := appendRec(s, fmt.Sprintf("post-%d", i), 2, []byte(fmt.Sprintf("new-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Compactions != 1 {
			t.Fatalf("Compactions = %d, want 1", st.Compactions)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		_, rec := reopen(t, dir, n)
		if string(rec.Snapshot) != "snapshot-state" {
			t.Fatalf("snapshot = %q", rec.Snapshot)
		}
		if len(rec.Records) != 4 {
			t.Fatalf("recovered %d post-snapshot records, want 4", len(rec.Records))
		}
		for i, r := range rec.Records {
			if string(r.Data) != fmt.Sprintf("new-%d", i) {
				t.Fatalf("post-snapshot record %d = %q", i, r.Data)
			}
		}
		for si := 0; si < n; si++ {
			if _, err := os.Stat(filepath.Join(dir, shardDirName(si), segmentName(1))); !os.IsNotExist(err) {
				t.Fatalf("compaction left shard %d's covered segment behind (stat: %v)", si, err)
			}
		}
	}
}

// TestShardedTornSnapshotSkipped: a snapshot file torn by a crash
// mid-compaction is skipped; recovery falls back to the newest valid
// snapshot and the records it does not cover.
func TestShardedTornSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	s, _ := reopen(t, dir, n)
	appendKeyed(t, s, n, 10)
	if err := compact(s, []byte("good-state")); err != nil {
		t.Fatal(err)
	}
	if err := appendRec(s, "after", 2, []byte("post-snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer snapshot that never finished: garbage bytes under a
	// higher index.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(99)), []byte("torn-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, n)
	if string(rec.Snapshot) != "good-state" {
		t.Fatalf("snapshot = %q, want the older valid snapshot", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "post-snap" {
		t.Fatalf("recovered %+v, want exactly the post-snapshot record", rec.Records)
	}
}

// TestLargeSnapshotSurvivesAndDamageFallsBack: snapshot state is not a
// log record, so a state above maxFrameSize compacts and recovers
// intact; and a newer snapshot that is truncated or has one bit flipped
// — in the header or anywhere in the state — fails its length/CRC check
// and recovery falls back to the previous snapshot.
func TestLargeSnapshotSurvivesAndDamageFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 2)
	big := bytes.Repeat([]byte("long-tail "), (maxFrameSize+(1<<20))/10)
	if len(big) <= maxFrameSize {
		t.Fatalf("state of %d bytes does not exceed the frame limit", len(big))
	}
	if err := appendRec(s, "a", 1, []byte("covered")); err != nil {
		t.Fatal(err)
	}
	if err := compact(s, big); err != nil {
		t.Fatalf("compacting a %d-byte state: %v", len(big), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := reopen(t, dir, 2)
	if !bytes.Equal(rec.Snapshot, big) || len(rec.Records) != 0 {
		t.Fatalf("recovered a %d-byte snapshot and %d records, want the %d-byte state and none", len(rec.Snapshot), len(rec.Records), len(big))
	}

	newer := snapshotHeader(0, []uint64{1, 1}, []byte("newer-state"))
	newer = append(newer, "newer-state"...)
	damage := map[string][]byte{
		"truncated state":  newer[:len(newer)-4],
		"truncated header": newer[:frameHeaderSize+6],
		"trailing bytes":   append(append([]byte(nil), newer...), 0),
	}
	for _, at := range []int{frameHeaderSize + 7, len(newer) - 3} {
		flipped := append([]byte(nil), newer...)
		flipped[at] ^= 0x10
		damage[fmt.Sprintf("bit flip at %d", at)] = flipped
	}
	for name, data := range damage {
		if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec, err := OpenSharded(Options{Dir: dir}, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s2.Close()
		if !bytes.Equal(rec.Snapshot, big) {
			t.Fatalf("%s: recovered a %d-byte snapshot, want the previous %d-byte one", name, len(rec.Snapshot), len(big))
		}
	}
	// Undamaged, the newer snapshot wins — the fallback above was the
	// damage, not the file being ignored.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), newer, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec = reopen(t, dir, 2)
	if string(rec.Snapshot) != "newer-state" {
		t.Fatalf("intact newer snapshot not preferred: recovered %d bytes", len(rec.Snapshot))
	}
}

// TestSnapshotNamingMissingShardsFailsOpen: the shard count comes from
// the request and the directories on disk; a snapshot header covering
// more shards than exist means shard directories were lost, and the
// open fails instead of silently dropping their records.
func TestSnapshotNamingMissingShardsFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 3)
	appendKeyed(t, s, 3, 12)
	if err := compact(s, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, shardDirName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSharded(Options{Dir: dir}, 1); err == nil {
		t.Fatal("open succeeded with a snapshot covering 3 shards and 2 on disk")
	}
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
