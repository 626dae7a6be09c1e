package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// segRecord renders one segment record — a frame whose data opens with
// the sequence prefix — the way the write path does.
func segRecord(seq uint64, kind byte, data []byte) []byte {
	return AppendFrame(nil, kind, append(binary.LittleEndian.AppendUint64(nil, seq), data...))
}

// fuzzSegmentBytes is what FuzzRecovery's journals preallocate a
// segment to: room for everything one input appends to a shard, small
// enough to read back thousands of times a second.
const fuzzSegmentBytes = 16 << 10

// padSegments appends zeros to every segment of shard si up to
// fuzzSegmentBytes: what a process that died before sealing them leaves
// of their preallocation, whatever came before the zeros.
func padSegments(t *testing.T, dir string, si int) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, shardDirName(si), "wal-*.seg"))
	for _, path := range paths {
		if fi, err := os.Stat(path); err != nil || fi.Size() >= fuzzSegmentBytes {
			continue // the fuzzer's own bytes, longer than a segment
		}
		if err := os.Truncate(path, fuzzSegmentBytes); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRecovery drives recovery of the one on-disk format from three
// sides. Records are appended over an arbitrary shard count and key set
// with the in-memory list of what was appended as the oracle; the log is
// compacted at arbitrary points of that list, each compaction ending
// cleanly or at one of its crash points; then a subset of shards has its
// tail torn, one shard's newest segment is replaced by arbitrary
// bytes, and a subset — torn or not — gets the zeros of a preallocation
// nobody trimmed behind every one of its segments, the newest and the
// older ones: the on-disk states an adversarial crash (torn write, bit
// rot, truncation, death before a seal) could leave behind. For any
// input:
//
//  1. recovery never panics, never fails on corrupt-but-readable
//     segments, and never reports more discarded bytes than the damaged
//     files held before any padding — zeros are no damage, so a padded
//     and otherwise undamaged shard recovers whole and reports none;
//  2. without compaction, every shard that was neither torn nor
//     overwritten recovers all of its records, a torn shard loses only a
//     suffix of its own, and the survivors come back in append order
//     (the merge never reorders) — with no damage at all, recovery
//     equals the appended list exactly;
//  3. with compaction and no damage at the end, the state a ledger would
//     rebuild from the recovered records — the last record of each key —
//     is the uncompacted oracle's, whichever crash points the
//     compactions hit: mid-emit with the fresh segments' tails torn,
//     after the rewrite's fsync with every sealed segment still there,
//     or after only some shards' sealed segments were deleted;
//  4. every record recovery returns is one it would accept again: the
//     recovered list, re-appended to a fresh journal, recovers to the
//     exact same records. A record that round-trips differently would
//     mean recovery acknowledged data the next recovery rejects — the
//     silent-loss bug the WAL exists to prevent.
func FuzzRecovery(f *testing.F) {
	var valid []byte
	for i := 0; i < 5; i++ {
		valid = append(valid, segRecord(uint64(100+i), byte(i%3+1), []byte(fmt.Sprintf("x-%d", i)))...)
	}
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff // corrupt the first payload byte under the CRC
	short := append([]byte(nil), valid...)
	short[0] = 0xff // length field pointing past the end
	f.Add(uint8(3), uint8(24), uint8(0), uint8(9), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(40), uint8(0b0101), uint8(17), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(10), uint8(1), uint8(3), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(63), uint8(0xff), uint8(60), true, valid, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(5), uint8(0), uint8(0), true, valid[:len(valid)-3], uint8(0), uint8(0), uint8(0), uint8(0)) // torn mid-frame
	f.Add(uint8(2), uint8(9), uint8(0), uint8(0), true, valid[:frameHeaderSize-1], uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(30), uint8(2), uint8(5), true, flipped, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), true, short, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(7), uint8(0), uint8(0), true, AppendFrame(nil, 1, []byte("no-seq")), uint8(0), uint8(0), uint8(0), uint8(0)) // CRC-clean, too short for a prefix
	// Compactions every few appends, the crash point rotating through
	// clean / mid-emit / before any delete / after some shards' deletes.
	f.Add(uint8(3), uint8(40), uint8(0), uint8(7), false, []byte{}, uint8(5), uint8(6), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(63), uint8(0), uint8(23), false, []byte{}, uint8(0), uint8(9), uint8(0b0101), uint8(0))
	f.Add(uint8(1), uint8(30), uint8(0), uint8(2), false, []byte{}, uint8(3), uint8(4), uint8(2), uint8(0))
	f.Add(uint8(4), uint8(50), uint8(0), uint8(11), false, []byte{}, uint8(7), uint8(3), uint8(0b1011), uint8(0))
	f.Add(uint8(3), uint8(48), uint8(0b011), uint8(5), true, valid, uint8(4), uint8(8), uint8(1), uint8(0))
	// Preallocation nobody trimmed: behind whole frames on every shard,
	// behind a frame torn inside the reserved region, and behind older
	// segments as well as the newest (the reopen after a crashed
	// compaction leaves some), with and without a tear elsewhere.
	f.Add(uint8(3), uint8(24), uint8(0), uint8(9), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0xff))
	f.Add(uint8(2), uint8(30), uint8(0b01), uint8(12), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0b01))
	f.Add(uint8(4), uint8(50), uint8(0), uint8(11), false, []byte{}, uint8(7), uint8(3), uint8(0b1011), uint8(0xff))
	f.Add(uint8(3), uint8(40), uint8(0b100), uint8(7), false, []byte{}, uint8(5), uint8(6), uint8(1), uint8(0b011))
	f.Add(uint8(2), uint8(20), uint8(0), uint8(1), true, valid, uint8(0), uint8(0), uint8(0), uint8(0b11))

	errAbort := errors.New("killed mid-emit")
	f.Fuzz(func(t *testing.T, shardsRaw, countRaw, tornMask, tearRaw uint8, overwrite bool, junk []byte, keysRaw, everyRaw, crashRaw, padMask uint8) {
		if len(junk) > 1<<20 {
			t.Skip("bounded corpus: oversized input")
		}
		n := int(shardsRaw%6) + 1
		count := int(countRaw % 64)
		every := int(everyRaw % 16) // compact after every this many appends; 0 never
		keyOf := func(i int) string {
			if m := int(keysRaw % 8); m > 0 {
				i %= m // keys repeat: a compaction has superseded records to drop
			}
			return fmt.Sprintf("key-%d", i)
		}
		// record writes record i through write: AppendFunc, or a
		// compaction's put.
		record := func(write func(string, byte, func([]byte) []byte) error, i int) error {
			return write(keyOf(i), byte(1+i%3), func(dst []byte) []byte { return fmt.Appendf(dst, "r-%03d", i) })
		}
		dir := t.TempDir()
		open := func() *Sharded {
			s, _, err := OpenSharded(Options{Dir: dir, SegmentBytes: fuzzSegmentBytes}, n)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			return s
		}
		pad := func() {
			for si := 0; si < n; si++ {
				if padMask&(1<<uint(si)) != 0 {
					padSegments(t, dir, si)
				}
			}
		}
		s := open()
		perShard := make([][]int, n)
		latest := make(map[string]int) // the oracle: key -> index of its last record
		var order []string             // keys by first append, the order a compaction emits in
		compactions := 0
		for i := 0; i < count; i++ {
			key := keyOf(i)
			if err := record(s.AppendFunc, i); err != nil {
				t.Fatal(err)
			}
			perShard[ShardIndex(key, n)] = append(perShard[ShardIndex(key, n)], i)
			if _, seen := latest[key]; !seen {
				order = append(order, key)
			}
			latest[key] = i
			if every == 0 || (i+1)%every != 0 {
				continue
			}

			// Compact, ending at crash point (crashRaw + k) % 4.
			crash := (int(crashRaw) + compactions) % 4
			compactions++
			sealed := make(map[string][]byte) // every segment on disk is about to be sealed
			paths, _ := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
			for _, path := range paths {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sealed[path] = data
			}
			emitted := 0
			_, err := s.Compact(func(put func(string, byte, func([]byte) []byte) error) error {
				for _, key := range order {
					if crash == 1 && emitted == int(tearRaw)%len(order) {
						return errAbort
					}
					if err := record(put, latest[key]); err != nil {
						return err
					}
					emitted++
				}
				return nil
			})
			if (crash == 1) != errors.Is(err, errAbort) || (crash != 1 && err != nil) {
				t.Fatalf("compaction at crash point %d = %v", crash, err)
			}
			if crash == 0 {
				continue
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for si := 0; crash == 1 && si < n; si++ {
				// Killed mid-emit: the rewrite so far, its tail torn, on top
				// of sealed segments nothing has deleted.
				truncateShardTail(t, dir, si, int64(tearRaw%40)+1)
			}
			for path, data := range sealed {
				var si int
				fmt.Sscanf(filepath.Base(filepath.Dir(path)), "shard-%03d", &si)
				// Killed after the rewrite's fsync: before any delete (2),
				// or with only some shards' sealed segments deleted (3).
				if crash == 2 || (crash == 3 && (crashRaw>>2)&(1<<uint(si)) != 0) {
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			pad() // the killed process sealed nothing
			s = open()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Damage: tear the masked shards' tails, then hand one shard's
		// newest segment over to the fuzzer's bytes.
		var damagedBytes int64
		torn := make(map[int]bool)
		for si := 0; si < n; si++ {
			if tornMask&(1<<uint(si)) != 0 && len(perShard[si]) > 0 && truncateShardTail(t, dir, si, int64(tearRaw%40)+1) {
				torn[si] = true
				fi, err := os.Stat(newestSegment(t, dir, si))
				if err != nil {
					t.Fatal(err)
				}
				damagedBytes += fi.Size()
			}
		}
		junked := -1
		if overwrite {
			junked = int(tearRaw) % n
			if err := os.WriteFile(newestSegment(t, dir, junked), junk, 0o644); err != nil {
				t.Fatal(err)
			}
			delete(torn, junked)
			damagedBytes += int64(len(junk))
		}
		pad()

		s2, rec, err := OpenSharded(Options{Dir: dir, SegmentBytes: fuzzSegmentBytes}, n)
		if err != nil {
			t.Fatalf("recovery failed on corrupt-but-readable input: %v", err)
		}
		s2.Close()
		if rec.TornTail < 0 || rec.TornTail > damagedBytes {
			t.Fatalf("torn tail %d outside [0, %d]", rec.TornTail, damagedBytes)
		}

		// The appended records among the survivors, as global indices.
		// Whatever else came back was decoded out of junk.
		var got []int
		for _, r := range rec.Records {
			var id int
			if cnt, _ := fmt.Sscanf(string(r.Data), "r-%03d", &id); cnt == 1 && len(r.Data) == 5 && id < count && r.Kind == byte(1+id%3) {
				got = append(got, id)
			} else if !overwrite {
				t.Fatalf("recovered unrecognizable record kind %d %q", r.Kind, r.Data)
			}
		}
		switch {
		case compactions == 0:
			survived := make(map[int]bool, len(got))
			for i, id := range got {
				if junked < 0 && i > 0 && id <= got[i-1] {
					t.Fatalf("merge reordered: index %d after %d", id, got[i-1])
				}
				survived[id] = true
			}
			for si, ids := range perShard {
				switch {
				case si == junked:
					continue
				case !torn[si]:
					for _, id := range ids {
						if !survived[id] {
							t.Fatalf("record %d lost from undamaged shard %d", id, si)
						}
					}
				default:
					// A torn shard keeps a prefix of its own records.
					tail := false
					for _, id := range ids {
						if !survived[id] {
							tail = true
						} else if tail {
							t.Fatalf("torn shard %d lost record mid-stream, then recovered %d after it", si, id)
						}
					}
				}
			}
			if len(torn) == 0 && junked < 0 && len(got) != count {
				t.Fatalf("undamaged journal recovered %d of %d records", len(got), count)
			}
		case len(torn) == 0 && junked < 0:
			state := make(map[string]int)
			for _, id := range got {
				state[keyOf(id)] = id
			}
			if len(state) != len(latest) {
				t.Fatalf("recovered state holds %d keys after %d compactions, the uncompacted log %d", len(state), compactions, len(latest))
			}
			for key, id := range latest {
				if state[key] != id {
					t.Fatalf("after %d compactions %s recovers as record %d, the uncompacted log says %d", compactions, key, state[key], id)
				}
			}
		}

		// Round trip: what recovery acknowledged must recover identically.
		dir2 := t.TempDir()
		s3, _, err := OpenSharded(Options{Dir: dir2, SegmentBytes: fuzzSegmentBytes}, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rec.Records {
			if err := appendRec(s3, fmt.Sprintf("again-%d", i), r.Kind, r.Data); err != nil {
				t.Fatalf("recovered record rejected on re-append: %v", err)
			}
		}
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
		s4, rec2, err := OpenSharded(Options{Dir: dir2, SegmentBytes: fuzzSegmentBytes}, n)
		if err != nil {
			t.Fatalf("re-recovery failed: %v", err)
		}
		s4.Close()
		if len(rec2.Records) != len(rec.Records) {
			t.Fatalf("round trip lost records: %d recovered, %d after re-append", len(rec.Records), len(rec2.Records))
		}
		for i := range rec.Records {
			if rec.Records[i].Kind != rec2.Records[i].Kind || !bytes.Equal(rec.Records[i].Data, rec2.Records[i].Data) {
				t.Fatalf("record %d changed across the round trip", i)
			}
		}
		if rec2.TornTail != 0 {
			t.Fatalf("clean re-append recovered a torn tail of %d bytes", rec2.TornTail)
		}
	})
}
