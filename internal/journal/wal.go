package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

var errClosed = errors.New("journal: closed")

// wal is one shard: a directory of numbered segment files, a write
// path that appends frames to the newest one, and a sync loop that
// group-commits them. All methods are safe for concurrent use.
type wal struct {
	opts Options // Dir is the shard's own directory

	mu        sync.Mutex // guards the write path and segment rotation
	seg       File       // guarded by mu
	segIndex  uint64     // guarded by mu
	segBytes  int64      // guarded by mu
	liveBytes int64      // guarded by mu; bytes appended since the last compaction sealed the log, its rewrite included, across rotations
	frameBuf  []byte     // guarded by mu; reusable frame scratch, so steady-state appends allocate nothing
	closed    bool       // guarded by mu

	// appendSeq counts records whose Write into the segment has returned
	// (not necessarily durable). It is the one high-water mark of the
	// commit path: advanced only under mu, read lock-free by whoever
	// fsyncs. syncedSeq trails it and only advances under syncMu.
	appendSeq atomic.Uint64
	syncedSeq atomic.Uint64

	// syncMu serializes the fsync itself and, together with mu, segment
	// rotation — so while it is held syncSeg is the segment every record
	// counted by appendSeq and not yet durable was written to. Appenders
	// never take it: they keep writing while an fsync is in flight, and
	// that in-flight window is where commit groups form.
	// Lock order: mu → syncMu → ackMu.
	syncMu  sync.Mutex
	syncSeg File // guarded by syncMu; always the same file as seg

	// The group-commit acknowledgment queue: durable appenders write
	// their record and park on ackCond until the sync loop's next
	// completed fsync covers their sequence number, so one fsync acks a
	// whole batch of accepts. ackMu is taken only around condvar state,
	// never across I/O.
	ackMu     sync.Mutex
	ackCond   *sync.Cond    // broadcast under ackMu whenever syncedSeq advances or the loop stops/fails
	wakeCond  *sync.Cond    // signaled under ackMu when an appender is waiting on durability
	loopStop  bool          // guarded by ackMu
	loopErr   error         // guarded by ackMu; last sync-loop fsync error
	loopErrHi uint64        // guarded by ackMu; appendSeq the failed fsync attempted to cover
	loopDone  chan struct{} // closed by the sync loop on exit

	appends   atomic.Uint64
	syncs     atomic.Uint64
	rotations atomic.Uint64
	bytes     atomic.Uint64

	batchCounts [syncBatchBuckets]atomic.Uint64
	batchSum    atomic.Uint64
	batchN      atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

func segmentName(index uint64) string { return fmt.Sprintf("wal-%08d.seg", index) }

// newWAL opens a shard appending to segment lastSeg+1 — never to a
// segment a previous process wrote — with liveBytes seeding the
// compaction-debt counter, and starts its sync loop. Recovery of the
// older segments is the caller's job (OpenSharded).
func newWAL(opts Options, lastSeg uint64, liveBytes int64) (*wal, error) {
	w := &wal{opts: opts, segIndex: lastSeg + 1, liveBytes: liveBytes, loopDone: make(chan struct{})}
	w.ackCond = sync.NewCond(&w.ackMu)
	w.wakeCond = sync.NewCond(&w.ackMu)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	go w.syncLoop()
	return w, nil
}

// openSegmentLocked creates the segment file for w.segIndex and makes
// it the write and fsync target. Callers hold mu and syncMu, or have
// exclusive access.
func (w *wal) openSegmentLocked() error {
	f, err := w.opts.openFile(filepath.Join(w.opts.Dir, segmentName(w.segIndex)))
	if err != nil {
		return fmt.Errorf("journal: open segment %d: %w", w.segIndex, err)
	}
	w.seg, w.syncSeg, w.segBytes = f, f, 0
	return nil
}

// writeFunc appends one frame to the active segment (rotating first if
// the segment is full) and returns the record's position in the shard.
func (w *wal) writeFunc(kind byte, build func(dst []byte) []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := w.renderLocked(kind, build)
	if err != nil {
		return 0, err
	}
	if w.segBytes > 0 && w.segBytes+int64(len(frame)) > w.opts.segmentBytes() {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return w.appendLocked(frame)
}

// renderLocked builds one sealed frame in the shard's reusable frame
// buffer, valid until the next call; callers hold w.mu. The payload is
// rendered by the caller directly into that buffer: build appends the
// payload bytes to dst and returns the extended slice. One copy total —
// no intermediate payload or frame allocations — which is what keeps
// the serving hot path's accept records allocation-free. build runs
// under the shard's write lock and must not call back into the journal.
func (w *wal) renderLocked(kind byte, build func(dst []byte) []byte) ([]byte, error) {
	if w.closed {
		return nil, errClosed
	}
	frame := build(append(w.frameBuf[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind))
	w.frameBuf = frame[:0] // retain the grown capacity across calls
	// Enforce the frame bound on the write side too: recovery treats a
	// length above maxFrameSize as corruption and stops replaying, so an
	// oversized record must never be acknowledged as durable — it would
	// silently take the rest of its segment down with it at recovery.
	if n := len(frame) - frameHeaderSize; n > maxFrameSize {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds frame limit %d", n, maxFrameSize)
	}
	sealFrame(frame)
	return frame, nil
}

// appendLocked writes a rendered frame to the active segment, whatever
// its size, and returns the record's position in the shard. Callers
// hold w.mu.
func (w *wal) appendLocked(frame []byte) (uint64, error) {
	if _, err := w.seg.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	w.segBytes += int64(len(frame))
	w.liveBytes += int64(len(frame))
	w.appends.Add(1)
	w.bytes.Add(uint64(len(frame)))
	// Publishing the record is this one store, after its Write returned:
	// an fsync that starts after loading appendSeq covers everything the
	// load counted, and nobody ever waits on a number not yet loaded here.
	return w.appendSeq.Add(1), nil
}

// rotateLocked seals the active segment (fsync + close, so everything
// in it is durable) and opens the next one. Callers hold w.mu.
func (w *wal) rotateLocked() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.seg.Sync(); err != nil {
		return fmt.Errorf("journal: rotate sync: %w", err)
	}
	w.syncs.Add(1)
	if err := w.seg.Close(); err != nil {
		return fmt.Errorf("journal: rotate close: %w", err)
	}
	w.advanceSynced(w.appendSeq.Load())
	w.segIndex++
	w.rotations.Add(1)
	return w.openSegmentLocked()
}

// advanceSynced publishes hi as the durable high-water mark, records
// the group-commit batch size it retired, and wakes every ack-queue
// waiter whose record it covers. Callers hold syncMu (the only place
// syncedSeq advances), so the load-compare-store is race-free.
func (w *wal) advanceSynced(hi uint64) {
	prev := w.syncedSeq.Load()
	if hi <= prev {
		return
	}
	w.syncedSeq.Store(hi)
	n := hi - prev
	i := 0
	for i < len(SyncBatchBounds) && n > SyncBatchBounds[i] {
		i++
	}
	w.batchCounts[i].Add(1)
	w.batchSum.Add(n)
	w.batchN.Add(1)
	w.ackMu.Lock()
	w.ackCond.Broadcast()
	w.ackMu.Unlock()
}

// addSyncBatches folds this shard's acked-per-fsync histogram into s.
func (w *wal) addSyncBatches(s *BatchStats) {
	for i := range w.batchCounts {
		s.Buckets[i] += w.batchCounts[i].Load()
	}
	s.Sum += w.batchSum.Load()
	s.Count += w.batchN.Load()
}

// syncLag returns how many appended records are not yet durable — the
// depth of the acknowledgment queue.
func (w *wal) syncLag() uint64 {
	// Load the durable mark first: appendSeq only grows, so racing the
	// two loads this way can only over-report lag, never underflow.
	synced := w.syncedSeq.Load()
	appended := w.appendSeq.Load()
	if appended <= synced {
		return 0
	}
	return appended - synced
}

// syncLoop is the group-commit worker: wait until at least one appender
// parks on the ack queue, fsync once to the current append high-water
// mark, broadcast, repeat. An fsync failure is delivered to exactly the
// waiters it attempted to cover (their sequence numbers are <= the
// captured high-water mark); the loop then parks until new appends
// arrive rather than hot-retrying a failing device. Terminates when
// close sets loopStop; loopDone is closed on exit so close can join.
func (w *wal) syncLoop() {
	defer close(w.loopDone)
	var failedHi uint64
	for {
		w.ackMu.Lock()
		for !w.loopStop {
			appended := w.appendSeq.Load()
			if appended > w.syncedSeq.Load() && appended > failedHi {
				break
			}
			w.wakeCond.Wait()
		}
		stop := w.loopStop
		w.ackMu.Unlock()
		if stop {
			return
		}
		hi := w.appendSeq.Load()
		if err := w.syncTo(hi); err != nil {
			failedHi = hi
			w.ackMu.Lock()
			w.loopErr = err
			w.loopErrHi = hi
			w.ackCond.Broadcast()
			w.ackMu.Unlock()
			continue
		}
		failedHi = 0
	}
}

// waitDurable blocks until record seq is durable: it wakes the sync
// loop, parks on the acknowledgment queue and is acked in batch by the
// loop's next completed fsync.
func (w *wal) waitDurable(seq uint64) error {
	if w.syncedSeq.Load() >= seq {
		return nil // someone else's group commit already covered us
	}
	w.ackMu.Lock()
	w.wakeCond.Signal()
	for w.syncedSeq.Load() < seq {
		if w.loopErr != nil && w.loopErrHi >= seq {
			err := w.loopErr
			w.ackMu.Unlock()
			return err
		}
		if w.loopStop {
			// The loop is shutting down with our record still queued;
			// settle it ourselves (close's final sync usually already has).
			w.ackMu.Unlock()
			return w.syncTo(seq)
		}
		w.ackCond.Wait()
	}
	w.ackMu.Unlock()
	return nil
}

// syncTo blocks until record seq is durable, fsyncing if needed. seq
// must be a value appendSeq has held: the fsync covers whatever
// appendSeq reads once syncMu is taken, which can only be later — the
// sync path never targets a record it has not seen published.
func (w *wal) syncTo(seq uint64) error {
	if w.syncedSeq.Load() >= seq {
		return nil // someone else's group commit already covered us
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedSeq.Load() >= seq {
		return nil // the previous holder's fsync covered our record
	}
	// Rotation needs syncMu, so every record counted here and not yet
	// durable finished its Write into syncSeg before this load.
	hi := w.appendSeq.Load()
	if err := datasync(w.syncSeg); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	w.syncs.Add(1)
	w.advanceSynced(hi)
	return nil
}

// stats returns a snapshot of the shard's counters.
func (w *wal) stats() Stats {
	return Stats{
		Appends:   w.appends.Load(),
		Syncs:     w.syncs.Load(),
		Rotations: w.rotations.Load(),
		Bytes:     w.bytes.Load(),
	}
}

// close stops the sync loop, syncs and closes the active segment.
// Idempotent.
func (w *wal) close() error {
	w.closeOnce.Do(func() {
		w.ackMu.Lock()
		w.loopStop = true
		w.wakeCond.Signal()
		w.ackCond.Broadcast() // parked appenders fall back to syncing themselves
		w.ackMu.Unlock()
		<-w.loopDone
		w.mu.Lock()
		defer w.mu.Unlock()
		w.closed = true
		w.syncMu.Lock()
		defer w.syncMu.Unlock()
		if err := w.seg.Sync(); err != nil {
			w.closeErr = err
		}
		if err := w.seg.Close(); err != nil && w.closeErr == nil {
			w.closeErr = err
		}
		if w.closeErr == nil {
			// Publish the final sync so late waiters settle without
			// touching the now-closed segment.
			w.advanceSynced(w.appendSeq.Load())
		}
	})
	return w.closeErr
}

// seqPrefixSize is the 8-byte little-endian global sequence number
// that opens every segment record's data.
const seqPrefixSize = 8

// seqRecord is a replayed record with the global sequence number its
// payload was prefixed with.
type seqRecord struct {
	seq uint64
	rec Record
}

// replaySegments reads the segment files in dir in order, stopping
// after a torn frame that is not the newest segment's crash tail
// (everything after a mid-history tear is unreadable). The newest
// segment's torn tail was never acknowledged and is cut off the file:
// this process appends to the next segment, and a tear left in place
// would read as mid-history damage at the following open and hide
// everything acknowledged from here on. A CRC-clean record too short
// to carry a sequence prefix cannot have been written by this package
// and counts as torn. It also returns the highest segment index on disk
// (0 if none) and the summed size of every segment file — the seed for
// liveBytes, so a process restarting on top of a long un-compacted
// history reaches its compaction threshold immediately, not after
// another threshold's worth of fresh appends.
func replaySegments(dir string, rec *Recovered) (recs []seqRecord, lastSeg uint64, diskBytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", err)
	}
	var segIdx []uint64
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); n != 1 {
			continue
		}
		segIdx = append(segIdx, idx)
		if info, err := e.Info(); err == nil {
			diskBytes += info.Size()
		}
	}
	sort.Slice(segIdx, func(a, b int) bool { return segIdx[a] < segIdx[b] })
	if len(segIdx) > 0 {
		lastSeg = segIdx[len(segIdx)-1]
	}
	for _, idx := range segIdx {
		path := filepath.Join(dir, segmentName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("journal: read segment: %w", err)
		}
		rec.Segments++
		fileSize := int64(len(data))
		for len(data) > 0 {
			payload, size, ok := nextFrame(data)
			if !ok || len(payload) < 1+seqPrefixSize {
				break
			}
			recs = append(recs, seqRecord{
				seq: binary.LittleEndian.Uint64(payload[1:]),
				rec: Record{Kind: payload[0], Data: append([]byte(nil), payload[1+seqPrefixSize:]...)},
			})
			data = data[size:]
		}
		if len(data) > 0 {
			rec.TornTail += int64(len(data))
			if idx != lastSeg {
				break
			}
			if err := os.Truncate(path, fileSize-int64(len(data))); err != nil {
				return nil, 0, 0, fmt.Errorf("journal: cut torn tail: %w", err)
			}
		}
	}
	return recs, lastSeg, diskBytes, nil
}
