// Sharded journal: N independent WALs whose fsyncs overlap across
// cores. One WAL serializes every durable accept behind a single fsync
// pipeline; at provider-scale feed rates (ROADMAP: "saturate the
// hardware") that one pipeline is the ceiling. Sharding splits the
// commit path by key — the ledger routes each event ID to a shard with
// the same FNV affinity the engine uses for its workers — so N
// group-commit sync loops run concurrently and the commit rate scales
// with spindles/flash queues instead of serializing on one file.
//
// Global ordering is preserved by a sequence number, not by file order:
// every record's payload is prefixed with an 8-byte little-endian
// sequence drawn from one atomic counter (assigned inside the owning
// shard's write lock, so per-shard file order and sequence order
// agree). Recovery replays every shard's segments and merges the
// records by sequence — what one WAL would have recovered, in the same
// order, minus whatever torn tails each shard lost past its own durable
// mark. Records a caller saw acknowledged were durable in their shard
// before the ack, so the merge never loses an acknowledged record no
// matter which subset of shards tore.
//
// The shard count is max(requested, shard directories on disk): records
// never move between shards after the fact (the merge makes placement
// irrelevant), so a journal can be reopened wider but never narrower.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// snapMagic opens a snapshot header; the trailing digit versions the
// file layout.
const snapMagic = "lts2"

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

func snapshotName(index uint64) string { return fmt.Sprintf("sharded-%08d.snap", index) }

// ShardIndex routes a key to one of n shards with FNV-1a — the same
// affinity the serving layer's engine uses to pin an event ID to a
// worker, so a ledger running one journal shard per engine shard keeps
// each ID's records on a single fsync pipeline.
func ShardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// Sharded is a write-ahead log striped over N shards, each with its own
// group-commit sync loop. All methods are safe for concurrent use.
// Appends are key-addressed: the key picks the shard, so records that
// must replay in order relative to each other (the ledger's accept and
// result for one event ID) share a key and therefore a shard.
type Sharded struct {
	opts   Options
	shards []*wal // immutable after OpenSharded

	// seq is the global record sequence; the next record gets seq+1,
	// assigned inside the owning shard's write lock.
	seq atomic.Uint64

	// snapIdx is the newest snapshot index; only the one compaction
	// holding the compacting latch reads or advances it.
	snapIdx     uint64
	compacting  atomic.Bool
	compactions atomic.Uint64
}

// OpenSharded recovers whatever a previous process left in opts.Dir and
// opens the journal with max(shards, shard directories on disk) shards,
// every shard's sync loop running. A directory holding segment or
// snapshot files at its root was not written by this layout and is
// refused rather than half-read.
func OpenSharded(opts Options, shards int) (*Sharded, *Recovered, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("journal: empty dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	n := max(shards, 1)
	var snapIdxs []uint64
	for _, e := range entries {
		var idx uint64
		if c, _ := fmt.Sscanf(e.Name(), "shard-%03d", &idx); c == 1 && e.IsDir() {
			n = max(n, int(idx)+1)
		}
		if c, _ := fmt.Sscanf(e.Name(), "sharded-%08d.snap", &idx); c == 1 {
			snapIdxs = append(snapIdxs, idx)
		}
		for _, pattern := range []string{"wal-%08d.seg", "state-%08d.snap"} {
			if c, _ := fmt.Sscanf(e.Name(), pattern, &idx); c == 1 {
				return nil, nil, fmt.Errorf("journal: %s holds root-level flat journal file %s; only the %s layout is read",
					opts.Dir, e.Name(), shardDirName(0))
			}
		}
	}

	// Newest snapshot that verifies wins; a torn one (crash during
	// compaction, bit rot) is skipped in favor of its predecessor.
	sort.Slice(snapIdxs, func(a, b int) bool { return snapIdxs[a] > snapIdxs[b] })
	rec := &Recovered{}
	fromSeg := make([]uint64, n)
	var lastSeq uint64
	for _, idx := range snapIdxs {
		snap, err := readSnapshot(filepath.Join(opts.Dir, snapshotName(idx)))
		if err != nil {
			return nil, nil, err
		}
		if snap == nil {
			continue
		}
		if len(snap.fromSeg) > n {
			return nil, nil, fmt.Errorf("journal: snapshot %d covers %d shards but only %d exist on disk", idx, len(snap.fromSeg), n)
		}
		rec.Snapshot, lastSeq = snap.state, snap.lastSeq
		copy(fromSeg, snap.fromSeg)
		break
	}

	s := &Sharded{opts: opts, shards: make([]*wal, 0, n)}
	if len(snapIdxs) > 0 {
		s.snapIdx = snapIdxs[0] // slice is sorted descending
	}
	var merged []seqRecord
	for i := 0; i < n; i++ {
		shardOpts := opts
		shardOpts.Dir = filepath.Join(opts.Dir, shardDirName(i))
		w, recs, err := openShard(shardOpts, fromSeg[i], rec)
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		s.shards = append(s.shards, w)
		merged = append(merged, recs...)
	}
	// Within a shard file order is sequence order, so this is a merge of
	// sorted runs; stability keeps file order for anything else.
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].seq < merged[b].seq })
	rec.Records = make([]Record, len(merged))
	for i, sr := range merged {
		rec.Records[i] = sr.rec
		lastSeq = max(lastSeq, sr.seq)
	}
	s.seq.Store(lastSeq)
	return s, rec, nil
}

// openShard replays one shard directory (creating it if absent) from
// segment fromSeg on and opens its WAL on a fresh segment.
func openShard(opts Options, fromSeg uint64, rec *Recovered) (*wal, []seqRecord, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, lastSeg, diskBytes, err := replaySegments(opts.Dir, fromSeg, rec)
	if err != nil {
		return nil, nil, err
	}
	w, err := newWAL(opts, lastSeg, diskBytes)
	return w, recs, err
}

// snapshot is a decoded snapshot file: the caller's state, the last
// sequence number it dominates and, per shard, the first segment it
// does not cover.
type snapshot struct {
	state   []byte
	lastSeq uint64
	fromSeg []uint64
}

// snapshotHeader renders the framed header that opens a snapshot file:
// `[frame: magic, u32 shard count, u64 last seq, per-shard u64
// from-segment, u64 state length, u32 state CRC-32C]`. The state bytes
// follow it unframed, so a snapshot is written with two Writes and no
// copy of the state, and its size is not bounded by maxFrameSize.
func snapshotHeader(lastSeq uint64, fromSeg []uint64, state []byte) []byte {
	p := make([]byte, 0, len(snapMagic)+4+8+8*len(fromSeg)+8+4)
	p = append(p, snapMagic...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(fromSeg)))
	p = binary.LittleEndian.AppendUint64(p, lastSeq)
	for _, fs := range fromSeg {
		p = binary.LittleEndian.AppendUint64(p, fs)
	}
	p = binary.LittleEndian.AppendUint64(p, uint64(len(state)))
	p = binary.LittleEndian.AppendUint32(p, crc32.Checksum(state, castagnoli))
	return AppendFrame(nil, 0, p)
}

// readSnapshot loads and verifies one snapshot file. It returns nil
// without error for a torn file — header frame incomplete or failing
// its CRC, state shorter or longer than the header says, state CRC
// mismatch — and an error for a file it cannot read or whose intact
// header names a layout this version does not write.
func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	payload, size, ok := nextFrame(data)
	if !ok {
		return nil, nil
	}
	p := payload[1:]
	if len(p) < len(snapMagic) || string(p[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("journal: %s is not a %q snapshot; unsupported layout", filepath.Base(path), snapMagic)
	}
	p = p[len(snapMagic):]
	if len(p) < 4+8 {
		return nil, nil
	}
	count := int(binary.LittleEndian.Uint32(p))
	snap := &snapshot{lastSeq: binary.LittleEndian.Uint64(p[4:])}
	p = p[4+8:]
	if len(p) != 8*count+8+4 {
		return nil, nil
	}
	snap.fromSeg = make([]uint64, count)
	for i := range snap.fromSeg {
		snap.fromSeg[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	p = p[8*count:]
	snap.state = data[size:]
	if uint64(len(snap.state)) != binary.LittleEndian.Uint64(p) ||
		crc32.Checksum(snap.state, castagnoli) != binary.LittleEndian.Uint32(p[8:]) {
		return nil, nil
	}
	return snap, nil
}

// shard returns the WAL owning key.
func (s *Sharded) shard(key string) *wal {
	return s.shards[ShardIndex(key, len(s.shards))]
}

// write appends a record to key's shard with the next global sequence
// number as its prefix. The sequence is drawn inside the shard's write
// lock, so within a shard the file order and the sequence order agree —
// the invariant the recovery merge depends on.
func (s *Sharded) write(key string, kind byte, build func(dst []byte) []byte) (*wal, uint64, error) {
	w := s.shard(key)
	pos, err := w.writeFunc(kind, func(dst []byte) []byte {
		return build(binary.LittleEndian.AppendUint64(dst, s.seq.Add(1)))
	})
	return w, pos, err
}

// AppendFunc writes a record to key's shard and returns once it is
// durable — parked on the shard's acknowledgment queue and acked in
// batch by its sync loop's next fsync. build renders the payload
// directly into the shard's frame buffer (zero steady-state
// allocations), runs under the shard's write lock and must not call
// back into the journal.
func (s *Sharded) AppendFunc(key string, kind byte, build func(dst []byte) []byte) error {
	w, pos, err := s.write(key, kind, build)
	if err != nil {
		return err
	}
	return w.waitDurable(pos)
}

// AppendAsyncFunc is AppendFunc without the durability wait, for records
// the caller can re-derive after a crash; they become durable with the
// shard's next fsync, rotation or Close.
func (s *Sharded) AppendAsyncFunc(key string, kind byte, build func(dst []byte) []byte) error {
	_, _, err := s.write(key, kind, build)
	return err
}

// Sync forces everything appended so far, on every shard, to durable
// storage.
func (s *Sharded) Sync() error {
	var first error
	for _, w := range s.shards {
		if err := w.syncTo(w.appendSeq.Load()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CompactStaged captures the caller's state as the new recovery
// baseline and deletes every segment it covers. stage runs with every
// shard's write lock held — so what it captures dominates every record
// on every shard, and no record can be appended between the capture and
// the rotation that seals the old segments — and should be cheap:
// capture references to (immutable) state and return an encode thunk.
// Each shard then rotates to a fresh segment and the locks are
// released; the expensive encode and the snapshot write happen with
// appends flowing into the fresh segments, which recovery replays on
// top of the snapshot. The snapshot lands in one root-level file
// (snapshotHeader) via tmp+rename. stage and encode must not append to
// this journal; an error from either aborts the compaction with the
// log intact. Compaction is single-flight: a call that finds one
// already running returns nil without compacting, since the in-flight
// snapshot already dominates everything this caller observed.
func (s *Sharded) CompactStaged(stage func() (func() ([]byte, error), error)) error {
	if !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	// Taking every shard's write lock in ascending shard order; the
	// fixed order means two compactions (already excluded by the latch)
	// or any future multi-shard path cannot deadlock.
	for _, w := range s.shards {
		w.mu.Lock()
	}
	unlock := func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}
	if s.shards[0].closed {
		unlock()
		return errClosed
	}
	encode, err := stage()
	if err != nil {
		unlock()
		return err
	}
	// Seal every active segment so the snapshot strictly dominates every
	// earlier record, and reset the live-log counters now: from here on
	// the live log is whatever lands in the fresh segments. (If the
	// snapshot write below fails, the sealed segments survive with the
	// counters already reset; the log is briefly under-counted, which
	// only delays the next trigger.)
	fromSeg := make([]uint64, len(s.shards))
	for i, w := range s.shards {
		if err := w.rotateLocked(); err != nil {
			unlock()
			return err
		}
		fromSeg[i] = w.segIndex // segments below the fresh one are covered
		w.liveBytes = 0
	}
	// No append can be in flight with every write lock held, so this is
	// exactly the highest sequence the snapshot dominates.
	lastSeq := s.seq.Load()
	unlock()

	state, err := encode()
	if err != nil {
		return err
	}
	snapIdx := s.snapIdx + 1
	path := filepath.Join(s.opts.Dir, snapshotName(snapIdx))
	if err := s.writeSnapshot(path, snapshotHeader(lastSeq, fromSeg, state), state); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	s.snapIdx = snapIdx
	s.compactions.Add(1)

	// Best-effort cleanup — a crash anywhere below leaves redundant
	// files that recovery skips (the snapshot header carries every
	// shard's boundary) and the next compaction re-deletes.
	for i, w := range s.shards {
		removeBelow(w.opts.Dir, "wal-%08d.seg", fromSeg[i])
	}
	removeBelow(s.opts.Dir, "sharded-%08d.snap", snapIdx)
	return nil
}

// writeSnapshot writes header then state to path via a synced temporary
// file and a rename, so path either holds a complete snapshot or does
// not exist.
func (s *Sharded) writeSnapshot(path string, header, state []byte) error {
	tmp := path + ".tmp"
	f, err := s.opts.openFile(tmp)
	if err != nil {
		return err
	}
	for _, part := range [][]byte{header, state} {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// removeBelow deletes the files in dir whose name matches pattern (one
// %08d index) with an index below limit.
func removeBelow(dir, pattern string, limit uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), pattern, &idx); n == 1 && idx < limit {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// LiveBytes returns the bytes appended since the last compaction,
// summed across shards and accumulated across segment rotations (and
// seeded from the on-disk segments at open) — the replay debt a crash
// right now would pay, and the number to compare against a compaction
// threshold. It is not capped by SegmentBytes, so a threshold larger
// than one segment is still reachable.
func (s *Sharded) LiveBytes() int64 {
	var total int64
	for _, w := range s.shards {
		w.mu.Lock()
		total += w.liveBytes
		w.mu.Unlock()
	}
	return total
}

// Stats returns the journal counters aggregated across shards.
func (s *Sharded) Stats() Stats {
	agg := Stats{Compactions: s.compactions.Load()}
	for _, st := range s.ShardStats() {
		agg.Appends += st.Appends
		agg.Syncs += st.Syncs
		agg.Rotations += st.Rotations
		agg.Bytes += st.Bytes
	}
	return agg
}

// ShardStats returns each shard's counters, indexed by shard.
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, w := range s.shards {
		out[i] = w.stats()
	}
	return out
}

// ShardLag returns each shard's acknowledgment-queue depth (appended
// but not yet durable records), indexed by shard.
func (s *Sharded) ShardLag() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, w := range s.shards {
		out[i] = w.syncLag()
	}
	return out
}

// SyncBatches returns the acked-records-per-fsync histogram aggregated
// across shards.
func (s *Sharded) SyncBatches() BatchStats {
	var agg BatchStats
	for _, w := range s.shards {
		w.addSyncBatches(&agg)
	}
	return agg
}

// Close stops every shard's sync loop, syncs and closes every shard.
// Idempotent.
func (s *Sharded) Close() error {
	var first error
	for _, w := range s.shards {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
