package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// segRecord renders one record the way the write path puts it in
// segment seg: a frame whose data opens with the sequence prefix, its
// CRC salted with seg.
func segRecord(seg, seq uint64, kind byte, data []byte) []byte {
	frame := append([]byte{0, 0, 0, 0, 0, 0, 0, 0, kind}, binary.LittleEndian.AppendUint64(nil, seq)...)
	frame = append(frame, data...)
	sealFrame(frame, seg)
	return frame
}

// plantedIndex names the pool file FuzzRecovery plants in a shard before
// the journal first opens it: the shard's first segment, 10, is that
// file recycled.
const plantedIndex = 9

// staleSegment is the planted pool file, what a file brings from its
// earlier lives: records sealed under every index below the one it is
// recycled as, with sequence numbers above anything a fuzz input
// appends, as long as the input's own records ("r-NNN" and "s-NNN" both
// frame to 22 bytes, so a crash on a frame boundary leaves an old frame
// exactly where the next one would start), and torn fragments between
// them.
func staleSegment() []byte {
	var out []byte
	for i := 0; i < 60; i++ {
		frame := segRecord(uint64(1+i%plantedIndex), 1<<40+uint64(i), byte(1+i%3), fmt.Appendf(nil, "s-%03d", i))
		out = append(out, frame...)
		if i%16 == 15 {
			out = append(out, frame[:len(frame)/2]...)
		}
	}
	return out
}

// image is a pool file's bytes as they were before its file was
// recycled.
type image struct {
	fi   os.FileInfo
	data []byte
}

// recordFrameBytes is the size of the frame of every record
// FuzzRecovery appends ("r-NNN").
const recordFrameBytes = frameHeaderSize + 1 + seqPrefixSize + 5

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

// FuzzRecovery drives recovery of the one on-disk format from four
// sides. Records are appended over an arbitrary shard count and key set
// with the in-memory list of what was appended as the oracle, a subset
// of shards starting life on a planted pool file (staleSegment); the
// log is compacted at arbitrary points of that list, each compaction
// ending cleanly or at one of its crash points, and its retired segments
// are recycled; then a subset of shards crashes at an arbitrary byte of
// its newest segment's new life — the new bytes up to there, whatever
// the file held before after it — one shard's newest segment is
// replaced by arbitrary bytes, and a subset — torn or not — gets the
// zeros of a preallocation nobody trimmed behind every one of its
// segments, the newest and the older ones: the on-disk states an
// adversarial crash (torn write, bit rot, truncation, death before a
// seal, a recycled file's old contents) could leave behind. For any
// input:
//
//  1. recovery never panics, never fails on corrupt-but-readable
//     segments — except that it refuses, naming the segment, arbitrary
//     bytes whose frames check only under the plain CRC of a journal
//     written before segment-salted CRCs — never returns a record from
//     a recycled file's earlier life, and never reports more discarded
//     bytes than the damaged files held before any padding — zeros are
//     no damage, so a padded and otherwise undamaged shard recovers
//     whole and reports none;
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
//     or after only some shards' sealed segments were retired;
//  4. every record recovery returns is one it would accept again: the
//     recovered list, re-appended to a fresh journal, recovers to the
//     exact same records. A record that round-trips differently would
//     mean recovery acknowledged data the next recovery rejects — the
//     silent-loss bug the WAL exists to prevent.
func FuzzRecovery(f *testing.F) {
	var valid, unsalted []byte // records of segment 1, the one the overwrite replaces in most seeds
	for i := 0; i < 5; i++ {
		valid = append(valid, segRecord(1, uint64(100+i), byte(i%3+1), []byte(fmt.Sprintf("x-%d", i)))...)
		unsalted = append(unsalted, segRecord(0, uint64(100+i), byte(i%3+1), []byte(fmt.Sprintf("x-%d", i)))...)
	}
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff // corrupt the first payload byte under the CRC
	short := append([]byte(nil), valid...)
	short[0] = 0xff // length field pointing past the end
	f.Add(uint8(3), uint8(24), uint8(0), uint8(9), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(4), uint8(40), uint8(0b0101), uint8(17), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(10), uint8(1), uint8(3), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(6), uint8(63), uint8(0xff), uint8(60), true, valid, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(5), uint8(0), uint8(0), true, valid[:len(valid)-3], uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0)) // torn mid-frame
	f.Add(uint8(2), uint8(9), uint8(0), uint8(0), true, valid[:frameHeaderSize-1], uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(30), uint8(2), uint8(5), true, flipped, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), true, short, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	noSeq := append(make([]byte, frameHeaderSize), "\x01no-seq"...)
	sealFrame(noSeq, 1)
	f.Add(uint8(1), uint8(7), uint8(0), uint8(0), true, noSeq, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0)) // CRC-clean, too short for a prefix
	// Compactions every few appends, the crash point rotating through
	// clean / mid-emit / before any retire / after some shards' retires.
	f.Add(uint8(3), uint8(40), uint8(0), uint8(7), false, []byte{}, uint8(5), uint8(6), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(63), uint8(0), uint8(23), false, []byte{}, uint8(0), uint8(9), uint8(0b0101), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(30), uint8(0), uint8(2), false, []byte{}, uint8(3), uint8(4), uint8(2), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(4), uint8(50), uint8(0), uint8(11), false, []byte{}, uint8(7), uint8(3), uint8(0b1011), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(48), uint8(0b011), uint8(5), true, valid, uint8(4), uint8(8), uint8(1), uint8(0), uint8(0), uint16(0))
	// Preallocation nobody trimmed: behind whole frames on every shard,
	// behind a frame torn inside the reserved region, and behind older
	// segments as well as the newest (the reopen after a crashed
	// compaction leaves some), with and without a tear elsewhere.
	f.Add(uint8(3), uint8(24), uint8(0), uint8(9), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0xff), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(30), uint8(0b01), uint8(12), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0b01), uint8(0), uint16(0))
	f.Add(uint8(4), uint8(50), uint8(0), uint8(11), false, []byte{}, uint8(7), uint8(3), uint8(0b1011), uint8(0xff), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(40), uint8(0b100), uint8(7), false, []byte{}, uint8(5), uint8(6), uint8(1), uint8(0b011), uint8(0), uint16(0))
	f.Add(uint8(2), uint8(20), uint8(0), uint8(1), true, valid, uint8(0), uint8(0), uint8(0), uint8(0b11), uint8(0), uint16(0))
	// A journal from before segment-salted CRCs: refused by name.
	f.Add(uint8(1), uint8(7), uint8(0), uint8(0), true, unsalted, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	// Shards starting on a planted pool file: undamaged; crashed one
	// byte, one whole record (the next frame slot then holds an old
	// frame), several records and the whole new life back; a shard whose
	// new life is empty; and the recycling compactions bring, at each of
	// their crash points.
	f.Add(uint8(3), uint8(24), uint8(0), uint8(9), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0xff), uint16(0))
	f.Add(uint8(2), uint8(30), uint8(0b11), uint8(0), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0b11), uint16(0))
	f.Add(uint8(2), uint8(30), uint8(0b11), uint8(21), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0b01), uint16(0))
	f.Add(uint8(1), uint8(40), uint8(1), uint8(21), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint16(22*7))
	f.Add(uint8(2), uint8(40), uint8(0b11), uint8(0), false, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0b10), uint8(0b11), uint16(4000))
	f.Add(uint8(4), uint8(3), uint8(0xff), uint8(0), false, []byte{}, uint8(1), uint8(0), uint8(0), uint8(0), uint8(0xff), uint16(0))
	f.Add(uint8(3), uint8(40), uint8(0b101), uint8(7), false, []byte{}, uint8(5), uint8(6), uint8(0), uint8(0), uint8(0b111), uint16(0))
	f.Add(uint8(2), uint8(63), uint8(0b11), uint8(21), false, []byte{}, uint8(3), uint8(5), uint8(1), uint8(0), uint8(0b01), uint16(44))
	f.Add(uint8(3), uint8(48), uint8(0), uint8(5), false, []byte{}, uint8(4), uint8(4), uint8(0b1110), uint8(0b100), uint8(0b011), uint16(0))

	errAbort := errors.New("killed mid-emit")
	f.Fuzz(func(t *testing.T, shardsRaw, countRaw, tornMask, tearRaw uint8, overwrite bool, junk []byte, keysRaw, everyRaw, crashRaw, padMask, poolMask uint8, cutRaw uint16) {
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
		// images keeps every pool file as it was before an open or a
		// compaction, the two things that recycle one.
		var images []image
		remember := func() {
			paths, _ := filepath.Glob(filepath.Join(dir, "shard-*", "free-*.seg"))
			for _, path := range paths {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				images = append(images, image{fi, data})
			}
		}
		open := func() *Sharded {
			remember()
			s, _, err := OpenSharded(Options{Dir: dir, SegmentBytes: fuzzSegmentBytes}, n)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			return s
		}
		// tear crashes shard si's newest segment cut bytes before the end
		// of its new life: the new bytes up to there (kept[si]), then
		// whatever the file held before — a recycled file's old contents,
		// nothing for a created one. It returns the bytes left, and false
		// if the shard has no segment.
		kept := make(map[int]int64)
		tear := func(si int, cut int64) (int64, bool) {
			newest := newestSegment(t, dir, si)
			if newest == "" {
				return 0, false
			}
			fi, err := os.Stat(newest)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			k := max(int64(len(data))-cut, 0)
			kept[si] = k
			var old []byte
			for _, img := range images {
				if os.SameFile(fi, img.fi) {
					old = img.data // the latest image of the file
				}
			}
			crashed := data[:k]
			if int64(len(old)) > k {
				crashed = append(crashed, old[k:]...)
			}
			if err := os.WriteFile(newest, crashed, 0o644); err != nil {
				t.Fatal(err)
			}
			return int64(len(crashed)), true
		}
		pad := func() {
			for si := 0; si < n; si++ {
				if padMask&(1<<uint(si)) != 0 {
					padSegments(t, dir, si)
				}
			}
		}
		for si := 0; si < n; si++ {
			if poolMask&(1<<uint(si)) == 0 {
				continue
			}
			sdir := filepath.Join(dir, shardDirName(si))
			if err := os.MkdirAll(sdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sdir, fmt.Sprintf(poolFormat, plantedIndex)), staleSegment(), 0o644); err != nil {
				t.Fatal(err)
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
			sealed := make(map[string][]byte)
			emitted := 0
			remember()
			_, err := s.Compact(func(put func(string, byte, func([]byte) []byte) error) error {
				// Every segment but each shard's fresh one is sealed now,
				// cut to its frames as a kill after the rewrite's fsync
				// finds it.
				fresh := make(map[string]bool)
				for si := 0; si < n; si++ {
					fresh[newestSegment(t, dir, si)] = true
				}
				paths, _ := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.seg"))
				for _, path := range paths {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !fresh[path] {
						sealed[path] = data
					}
				}
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
				// of sealed segments nothing has retired.
				tear(si, int64(tearRaw%40)+1)
			}
			for path, data := range sealed {
				si, _ := matchName(filepath.Base(filepath.Dir(path)), shardDirFormat)
				idx, _ := matchName(filepath.Base(path), segmentFormat)
				// Killed after the rewrite's fsync: before any segment was
				// retired (2), or with only some shards' retired (3).
				if crash == 2 || (crash == 3 && (crashRaw>>2)&(1<<si) != 0) {
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					os.Remove(filepath.Join(filepath.Dir(path), fmt.Sprintf(poolFormat, idx)))
				}
			}
			pad() // the killed process sealed nothing
			s = open()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Damage: crash the masked shards' newest segments (a planted
		// shard's even when its new life is empty), then hand one shard's
		// newest segment over to the fuzzer's bytes.
		var damagedBytes int64
		torn := make(map[int]bool)
		for si := 0; si < n; si++ {
			if tornMask&(1<<uint(si)) == 0 || len(perShard[si]) == 0 && poolMask&(1<<uint(si)) == 0 {
				continue
			}
			if size, ok := tear(si, int64(tearRaw%40)+1+int64(cutRaw)); ok {
				torn[si] = true
				damagedBytes += size
			}
		}
		junked, junkPath := -1, ""
		if overwrite {
			junked = int(tearRaw) % n
			junkPath = newestSegment(t, dir, junked)
			if err := os.WriteFile(junkPath, junk, 0o644); err != nil {
				t.Fatal(err)
			}
			delete(torn, junked)
			damagedBytes += int64(len(junk))
		}
		pad()

		s2, rec, err := OpenSharded(Options{Dir: dir, SegmentBytes: fuzzSegmentBytes}, n)
		if overwrite && errors.Is(err, errUnsalted) && strings.Contains(err.Error(), junkPath) {
			return // the fuzzer's bytes check only under the plain CRC
		}
		if err != nil {
			t.Fatalf("recovery failed on corrupt-but-readable input: %v", err)
		}
		s2.Close()
		if rec.TornTail < 0 || rec.TornTail > damagedBytes {
			t.Fatalf("torn tail %d outside [0, %d]", rec.TornTail, damagedBytes)
		}
		for si := range torn {
			if kept[si]%recordFrameBytes != 0 && rec.TornTail == 0 {
				t.Fatalf("shard %d torn inside a frame, and no torn bytes reported", si)
			}
		}

		// The appended records among the survivors, as global indices.
		// Whatever else came back was decoded out of junk.
		var got []int
		for _, r := range rec.Records {
			var id int
			if bytes.HasPrefix(r.Data, []byte("s-")) {
				t.Fatalf("recovered %q, a record of a recycled file's earlier life", r.Data)
			}
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
					// A torn shard keeps a prefix of its own records: at
					// least every one whose frame ended before the tear.
					tail, prefix := false, 0
					for _, id := range ids {
						if !survived[id] {
							tail = true
						} else if tail {
							t.Fatalf("torn shard %d lost record mid-stream, then recovered %d after it", si, id)
						} else {
							prefix++
						}
					}
					if whole := min(len(ids), int(kept[si]/recordFrameBytes)); prefix < whole {
						t.Fatalf("torn shard %d kept %d records, but %d ended before the tear", si, prefix, whole)
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
