package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// poolFiles lists the indexes of shard si's free-*.seg files, ascending.
func poolFiles(t *testing.T, dir string, si int) []uint64 {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, shardDirName(si)))
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := matchName(e.Name(), poolFormat); ok {
			out = append(out, idx)
		}
	}
	return out
}

// fill appends count 113-byte records under key: nine fill a 1 KB
// segment, the tenth rotates it.
func fill(t *testing.T, s *Sharded, key string, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := appendRec(s, key, 1, bytes.Repeat([]byte{'a' + byte(i%26)}, 96)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNamesParsedWhole: a file or directory is the journal's only when
// its whole name is: an operator's copy of a live segment is neither
// replayed beside it nor deleted by compaction, and a moved-aside shard
// directory adds no shard. (Prefix parsing read wal-00000001.seg.bak as
// segment 1 a second time, every record twice.)
func TestNamesParsedWhole(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir, 1)
	appendKeyed(t, s, 1, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sdir := filepath.Join(dir, shardDirName(0))
	data, err := os.ReadFile(filepath.Join(sdir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	copies := []string{segmentName(1) + ".bak", "wal-00000001.segment", "wal-1.seg", "free-1.seg"}
	for _, name := range copies {
		if err := os.WriteFile(filepath.Join(sdir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, shardDirName(1)+".old"), 0o755); err != nil {
		t.Fatal(err)
	}

	s2, rec := reopen(t, dir, 1)
	if len(rec.Records) != 10 || rec.Segments != 1 {
		t.Fatalf("recovered %d records from %d segments, want each of the 10 once from 1", len(rec.Records), rec.Segments)
	}
	if n := len(s2.ShardStats()); n != 1 {
		t.Fatalf("%d shards: a moved-aside shard directory counted", n)
	}
	if _, err := rewrite(s2, "live"); err != nil {
		t.Fatal(err)
	}
	for _, name := range copies {
		if _, err := os.Stat(filepath.Join(sdir, name)); err != nil {
			t.Fatalf("compaction took the operator's %s: %v", name, err)
		}
	}
}

// TestUnsaltedJournalRefused: segments whose frames check only under
// the plain CRC were written before segment-salted CRCs. The open fails
// naming the segment; it never reads the journal as empty.
func TestUnsaltedJournalRefused(t *testing.T) {
	dir := t.TempDir()
	sdir := filepath.Join(dir, shardDirName(1))
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sdir, segmentName(3))
	if err := os.WriteFile(path, segRecord(0, 1, 1, []byte("old")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenSharded(Options{Dir: dir}, 2)
	if !errors.Is(err, errUnsalted) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenSharded over an unsalted segment = %v, want a refusal naming %s", err, path)
	}
}

// TestFailedOpenRetried: a rotation whose new segment cannot be opened
// fails its append and leaves the shard without an active segment; the
// next append opens one, and a reopen recovers exactly the acknowledged
// records. Both ways a segment is opened: created (an OpenFile that fails
// its second call) and recycled (the pool file gone behind the
// journal's back, so its rename fails).
func TestFailedOpenRetried(t *testing.T) {
	const segBytes = 1 << 10
	for _, mode := range []string{"created", "recycled"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, SegmentBytes: segBytes}
			var opens atomic.Int32
			if mode == "created" {
				opts.OpenFile = func(path string) (File, error) {
					if opens.Add(1) == 2 {
						return nil, fmt.Errorf("injected open failure")
					}
					return os.Create(path)
				}
			}
			s, _, err := OpenSharded(opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			var acked []string
			appendOne := func(i int) error {
				data := fmt.Sprintf("%03d-%s", i, bytes.Repeat([]byte{'x'}, 92))
				err := appendRec(s, "k", 1, []byte(data))
				if err == nil {
					acked = append(acked, data)
				}
				return err
			}
			i := 0
			if mode == "recycled" {
				for ; i < 20; i++ { // two rotations, then a compaction retires all three segments
					if err := appendOne(i); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := rewrite(s); err != nil { // no live entries: the log starts over
					t.Fatal(err)
				}
				acked = nil
				pool := poolFiles(t, dir, 0)
				if len(pool) == 0 {
					t.Fatal("compaction retired nothing into the pool; the test is vacuous")
				}
				if err := os.Remove(filepath.Join(dir, shardDirName(0), fmt.Sprintf(poolFormat, pool[len(pool)-1]))); err != nil {
					t.Fatal(err)
				}
			}
			failed := 0
			for ; failed == 0 && i < 40; i++ {
				if appendOne(i) != nil {
					failed++
				}
			}
			if failed == 0 {
				t.Fatal("no append failed; the test is vacuous")
			}
			for j := 0; j < 3; j++ {
				if err := appendOne(i + j); err != nil {
					t.Fatalf("append %d after the failed open: %v", j, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := reopen(t, dir, 1)
			if len(rec.Records) != len(acked) {
				t.Fatalf("recovered %d records, want the %d acknowledged", len(rec.Records), len(acked))
			}
			for j, r := range rec.Records {
				if string(r.Data) != acked[j] {
					t.Fatalf("record %d = %.3s, want %.3s", j, r.Data, acked[j])
				}
			}
		})
	}
}

// TestPoolLifecycle: compaction retires superseded segments into the
// shard's pool, at most as many as it retired last, so the pool shrinks
// with the log; rotations and the next open take the newest pool file
// first; and no segment index is ever used twice, the pool's included —
// a recycled file's old frames are then never valid under its new index.
func TestPoolLifecycle(t *testing.T) {
	const segBytes = 1 << 10
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: segBytes}
	s, _, err := OpenSharded(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// fresh checks that a segment opened since the last call has an index
	// above every one on disk at that call, segment or pool file.
	var highest, active uint64
	fresh := func() {
		t.Helper()
		if a := s.shards[0].segIndex; a != active && a <= highest {
			t.Fatalf("new segment %d reuses an index at or below %d", a, highest)
		}
		active = s.shards[0].segIndex
		entries, err := os.ReadDir(filepath.Join(dir, shardDirName(0)))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			idx, seg := matchName(e.Name(), segmentFormat)
			free, pooled := matchName(e.Name(), poolFormat)
			if !seg && !pooled {
				t.Fatalf("shard directory holds %s", e.Name())
			}
			highest = max(highest, idx, free)
		}
	}

	fill(t, s, "k", 50) // five rotations: segments 1-6
	fresh()
	if _, err := rewrite(s, "live"); err != nil {
		t.Fatal(err)
	}
	fresh()
	if got := poolFiles(t, dir, 0); len(got) != 6 {
		t.Fatalf("pool after retiring segments 1-6 = %v", got)
	}
	fill(t, s, "k", 20) // two rotations, each from the pool
	fresh()
	if st := s.Stats(); st.Recycled != 2 || st.Rotations != 8 {
		t.Fatalf("%d of %d rotations recycled, want the 2 since the compaction (its own found the pool empty)", st.Recycled, st.Rotations)
	}
	if got := poolFiles(t, dir, 0); len(got) != 4 || got[3] != 4 {
		t.Fatalf("pool after two rotations = %v, want 1-4: the newest file goes first", got)
	}
	// The compaction takes pool file 4 and retires segments 7-9; the pool
	// keeps those 3 of its 6.
	if _, err := rewrite(s, "live"); err != nil {
		t.Fatal(err)
	}
	fresh()
	if got := poolFiles(t, dir, 0); len(got) != 3 || got[0] != 7 {
		t.Fatalf("pool after a compaction that retired 3 = %v, want 7-9", got)
	}
	// The live log is segment 10 alone, retired by the next compaction.
	if _, err := rewrite(s, "live"); err != nil {
		t.Fatal(err)
	}
	fresh()
	if got := poolFiles(t, dir, 0); len(got) != 1 {
		t.Fatalf("pool after a compaction that retired 1 = %v, want 1 file", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	pool := poolFiles(t, dir, 0)
	s, rec, err := OpenSharded(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fresh()
	if got := poolFiles(t, dir, 0); len(got) != 0 {
		t.Fatalf("pool after reopen = %v, want pool file %d adopted and taken by the new segment", got, pool[0])
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "live" || rec.TornTail != 0 {
		t.Fatalf("reopen recovered %d records and %d torn bytes, want the rewrite alone", len(rec.Records), rec.TornTail)
	}
	fill(t, s, "k", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rec := reopen(t, dir, 1); len(rec.Records) != 4 || rec.TornTail != 0 {
		t.Fatalf("recovered %d records and %d torn bytes from the recycled segment, want 4 and 0", len(rec.Records), rec.TornTail)
	}
}
