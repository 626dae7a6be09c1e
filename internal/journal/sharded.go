// Sharded journal: N independent WALs whose fsyncs overlap across
// cores. One WAL serializes every durable accept behind a single fsync
// pipeline; at provider-scale feed rates (ROADMAP: "saturate the
// hardware") that one pipeline is the ceiling. Sharding splits the
// commit path by key — the ledger routes each event ID to a shard with
// the same FNV affinity the engine uses for its workers — so N
// group commits run concurrently and the commit rate scales
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
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

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
// group commit. All methods are safe for concurrent use.
// Appends are key-addressed: the key picks the shard, so records that
// must replay in order relative to each other (the ledger's accept and
// result for one event ID) share a key and therefore a shard.
type Sharded struct {
	opts   Options
	shards []*wal // immutable after OpenSharded

	// seq is the global record sequence; the next record gets seq+1,
	// assigned inside the owning shard's write lock.
	seq atomic.Uint64

	compacting  atomic.Bool
	compactions atomic.Uint64
}

// OpenSharded recovers whatever a previous process left in opts.Dir and
// opens the journal with max(shards, shard directories on disk) shards.
// Recovery is one path: every segment
// present in every shard is replayed and the records are merged by
// sequence. A directory holding segment or snapshot files at its root
// was not written by this layout and is refused rather than half-read.
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
	for _, e := range entries {
		var idx uint64
		if c, _ := fmt.Sscanf(e.Name(), "shard-%03d", &idx); c == 1 && e.IsDir() {
			n = max(n, int(idx)+1)
		}
		for _, pattern := range []string{"wal-%08d.seg", "state-%08d.snap", "sharded-%08d.snap"} {
			if c, _ := fmt.Sscanf(e.Name(), pattern, &idx); c == 1 {
				return nil, nil, fmt.Errorf("journal: %s holds root-level file %s; only %s/%s is read",
					opts.Dir, e.Name(), shardDirName(0), segmentName(1))
			}
		}
	}

	s := &Sharded{opts: opts, shards: make([]*wal, 0, n)}
	rec := &Recovered{}
	var merged []seqRecord
	for i := 0; i < n; i++ {
		shardOpts := opts
		shardOpts.Dir = filepath.Join(opts.Dir, shardDirName(i))
		w, recs, err := openShard(shardOpts, rec)
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
	var lastSeq uint64
	for i, sr := range merged {
		rec.Records[i] = sr.rec
		lastSeq = max(lastSeq, sr.seq)
	}
	s.seq.Store(lastSeq)
	return s, rec, nil
}

// openShard replays one shard directory (creating it if absent) and
// opens its WAL on a fresh segment.
func openShard(opts Options, rec *Recovered) (*wal, []seqRecord, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, lastSeg, frameBytes, err := replaySegments(opts.Dir, rec)
	if err != nil {
		return nil, nil, err
	}
	w, err := newWAL(opts, lastSeg, frameBytes)
	return w, recs, err
}

// shard returns the WAL owning key.
func (s *Sharded) shard(key string) *wal {
	return s.shards[ShardIndex(key, len(s.shards))]
}

// sequenced prefixes build's payload with the next global sequence
// number. The number is drawn when the shard renders the frame, inside
// its write lock, so within a shard the file order and the sequence
// order agree — the invariant the recovery merge depends on.
func (s *Sharded) sequenced(build func(dst []byte) []byte) func(dst []byte) []byte {
	return func(dst []byte) []byte {
		return build(binary.LittleEndian.AppendUint64(dst, s.seq.Add(1)))
	}
}

// write appends a sequenced record to key's shard.
func (s *Sharded) write(key string, kind byte, build func(dst []byte) []byte) (*wal, uint64, error) {
	w := s.shard(key)
	pos, err := w.writeFunc(kind, s.sequenced(build))
	return w, pos, err
}

// AppendFunc writes a record to key's shard and returns once it is
// durable — by its own fsync, or by the one that was in flight when it
// asked (wal.waitDurable). build renders the payload
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

// Compact replaces the log's history with the entries that are still
// live, written as ordinary records — the log stays the only form of
// state on disk and recovery stays "replay every segment present".
//
// Seal: every shard's write lock is taken (ascending shard order) and
// every shard rotates, so everything appended so far sits in sealed
// segments. Emit: still under the locks, emit puts each live entry
// through put, which appends it — next sequence number, key's shard —
// to the fresh segments; no request's record can land between the seal
// and the state, so a fresh segment begins with the state and the sealed
// segments are superseded by construction. emit therefore has to see
// every entry whose record a sealed segment holds: writers install an
// entry in the caller's state before they append it. emit must not
// call any other method of this journal. The locks are released, the
// rewritten records are fsynced and only then are the sealed segments
// deleted.
//
// A crash at any point leaves a log that replays to the same state:
// before the fsync completes the sealed segments are all there and the
// (possibly torn) rewrite repeats a prefix of what they say; after it,
// any subset of the sealed segments may survive next to the complete
// rewrite, which follows them in sequence order and so wins. An error
// from emit or the fsync leaves the sealed segments in place.
//
// It returns the bytes the rewrite appended. Compaction is
// single-flight: a call that finds one in flight returns 0, nil without
// calling emit.
func (s *Sharded) Compact(emit func(put func(key string, kind byte, build func(dst []byte) []byte) error) error) (int64, error) {
	if !s.compacting.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer s.compacting.Store(false)
	// The fixed order means no two multi-shard paths can deadlock.
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
		return 0, errClosed
	}
	// The live-log counters restart here: from now on the live log is
	// whatever lands in the fresh segments. (If the rewrite fails the
	// sealed segments survive uncounted, which only delays the next
	// trigger.)
	fresh := make([]uint64, len(s.shards))
	for i, w := range s.shards {
		if err := w.rotateLocked(); err != nil {
			unlock()
			return 0, err
		}
		fresh[i] = w.segIndex
		w.liveBytes.Store(0)
	}
	err := emit(func(key string, kind byte, build func(dst []byte) []byte) error {
		// No rotation: a shard's fresh segment takes its whole share of the
		// state, so the locks are never held across an fsync of it.
		w := s.shard(key)
		frame, err := w.renderLocked(kind, s.sequenced(build))
		if err == nil {
			_, err = w.appendLocked(frame)
		}
		return err
	})
	rewritten := s.LiveBytes()
	unlock()

	if err == nil {
		err = s.Sync()
	}
	if err != nil {
		return 0, fmt.Errorf("journal: compact: %w", err)
	}
	s.compactions.Add(1)
	// Best-effort: a sealed segment that survives (crash, failed remove)
	// is replayed under the rewrite and deleted by the next compaction.
	for i, w := range s.shards {
		removeBelow(w.opts.Dir, fresh[i])
	}
	return rewritten, nil
}

// removeBelow deletes dir's segments with an index below limit.
func removeBelow(dir string, limit uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); n == 1 && idx < limit {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// LiveBytes returns the bytes in the live log: what the last compaction
// rewrote plus everything appended since, summed across shards and
// accumulated across segment rotations (and seeded from the frames
// replayed at open) — the replay debt a crash right now would pay. A
// compaction trigger compares it, less the rewrite Compact reported,
// with its threshold. It is not capped by SegmentBytes, so a threshold
// larger than one segment is still reachable. It takes no lock: the
// ledger reads it on every reply.
func (s *Sharded) LiveBytes() int64 {
	var total int64
	for _, w := range s.shards {
		total += w.liveBytes.Load()
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

// Close syncs and closes every shard. Idempotent.
func (s *Sharded) Close() error {
	var first error
	for _, w := range s.shards {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
