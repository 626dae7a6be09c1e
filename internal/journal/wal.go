package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

var errClosed = errors.New("journal: closed")

// wal is one shard: a directory of numbered segment files, a write
// path that appends frames to the newest one, and a leader commit that
// fsyncs them in groups. All methods are safe for concurrent use.
type wal struct {
	opts Options // Dir is the shard's own directory

	mu       sync.Mutex // guards the write path and segment rotation
	seg      File       // guarded by mu; nil after a rotation whose open failed, until one succeeds
	segIndex uint64     // guarded by mu
	segBytes int64      // guarded by mu
	frameBuf []byte     // guarded by mu; reusable frame scratch, so steady-state appends allocate nothing
	closed   bool       // guarded by mu
	pool     []uint64   // guarded by mu; the free-*.seg indexes, ascending: rotation takes the last

	// liveBytes is the bytes appended since the last compaction sealed the
	// log, its rewrite included, across rotations. Written only under mu;
	// the compaction trigger reads it on every reply without the lock.
	liveBytes atomic.Int64

	// appendSeq counts records whose Write into the segment has returned
	// (not necessarily durable). It is the one high-water mark of the
	// commit path: advanced only under mu, read lock-free by whoever
	// fsyncs. syncedSeq trails it and only advances under syncMu.
	appendSeq atomic.Uint64
	syncedSeq atomic.Uint64

	// syncMu serializes the fsync itself and, together with mu, segment
	// rotation — so while it is held syncSeg is the segment every record
	// counted by appendSeq and not yet durable was written to. Appenders
	// never take it to write: they keep writing while an fsync is in
	// flight, and that in-flight window is where commit groups form — the
	// durable appender that finds syncMu free is the leader and fsyncs on
	// its own goroutine, the ones that find it held wait on it and are
	// covered by the leader's fsync or lead the next one.
	// Lock order: mu → syncMu.
	syncMu  sync.Mutex
	syncSeg File // guarded by syncMu; always the same file as seg

	// A failed fsync is its waiters' error and is never retried on their
	// behalf: after one, the kernel may report the next fsync clean with
	// the pages gone. failedHi is the highest appendSeq a failed fsync
	// tried to cover (it only grows, under syncMu); a waiter at or below
	// it that has not been acknowledged yet gets failedErr, whatever a
	// later fsync reports — also the rare one whose record an earlier
	// fsync had made durable, which errs on the safe side: it retransmits.
	failedHi  atomic.Uint64
	failedErr error // guarded by syncMu

	appends   atomic.Uint64
	syncs     atomic.Uint64
	rotations atomic.Uint64
	recycled  atomic.Uint64
	bytes     atomic.Uint64

	batchCounts [syncBatchBuckets]atomic.Uint64
	batchSum    atomic.Uint64
	batchN      atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// Segment and pool file names; matchName parses them back.
const segmentFormat, poolFormat = "wal-%08d.seg", "free-%08d.seg"

func segmentName(index uint64) string { return fmt.Sprintf(segmentFormat, index) }

func (w *wal) poolPath(index uint64) string {
	return filepath.Join(w.opts.Dir, fmt.Sprintf(poolFormat, index))
}

// matchName returns the index in name if name is exactly format
// rendered with it: wal-00000003.seg.bak is no segment.
func matchName(name, format string) (uint64, bool) {
	var idx uint64
	if n, _ := fmt.Sscanf(name, format, &idx); n != 1 || fmt.Sprintf(format, idx) != name {
		return 0, false
	}
	return idx, true
}

// newWAL opens a shard appending to segment lastSeg+1 — never to a
// segment a previous process wrote — with liveBytes seeding the
// compaction-debt counter and pool the shard's. Recovery of the older
// segments is the caller's job (OpenSharded).
func newWAL(opts Options, lastSeg uint64, liveBytes int64, pool []uint64) (*wal, error) {
	w := &wal{opts: opts, segIndex: lastSeg + 1, pool: pool}
	w.liveBytes.Store(liveBytes)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegmentLocked opens the segment file for w.segIndex — the newest
// pool file renamed to it, or a new file — reserves what it lacks of its
// full size so that the appends and fsyncs to come change no file size
// (preallocate), and makes it the write and fsync target. Callers hold
// mu and syncMu, or have exclusive access.
func (w *wal) openSegmentLocked() error {
	open := w.opts.openFile
	if n := len(w.pool); n > 0 && w.opts.recycles() {
		free := w.poolPath(w.pool[n-1])
		w.pool = w.pool[:n-1]
		open = func(path string) (File, error) { return recycle(free, path) }
	}
	f, err := open(filepath.Join(w.opts.Dir, segmentName(w.segIndex)))
	if err != nil {
		return fmt.Errorf("journal: open segment %d: %w", w.segIndex, err)
	}
	preallocate(f, w.opts.segmentBytes())
	w.seg, w.syncSeg, w.segBytes = f, f, 0
	return nil
}

// recycle renames the pool file free to the segment path, fsyncs the
// directory and opens the file to overwrite it from its first byte. An
// fdatasync into written blocks commits no metadata, so without the
// directory's fsync a power loss could leave acknowledged records under
// the pool name, where recovery never looks.
func recycle(free, path string) (*os.File, error) {
	if err := os.Rename(free, path); err != nil {
		return nil, err
	}
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY, 0)
}

// sealLocked cuts the active segment to the bytes written, fsyncs and
// closes it (it stays active if the cut or the fsync fails); w.segIndex
// then names the next segment. Callers hold mu and syncMu.
func (w *wal) sealLocked() error {
	if err := trim(w.seg, w.segBytes); err != nil {
		return fmt.Errorf("journal: seal segment %d: %w", w.segIndex, err)
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	err := w.seg.Close()
	w.seg, w.syncSeg = nil, nil
	w.segIndex++
	return err
}

// writeFunc appends one frame to the active segment (rotating first if
// the segment is full, or opening one if the last rotation could not)
// and returns the record's position in the shard.
func (w *wal) writeFunc(kind byte, build func(dst []byte) []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := w.renderLocked(kind, build)
	if err != nil {
		return 0, err
	}
	if w.seg == nil || w.segBytes > 0 && w.segBytes+int64(len(frame)) > w.opts.segmentBytes() {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return w.appendLocked(frame)
}

// renderLocked builds one unsealed frame in the shard's reusable frame
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
	return frame, nil
}

// appendLocked seals a rendered frame for the active segment — known
// only after the rotation decision — and writes it there, whatever its
// size, returning the record's position in the shard. Callers hold w.mu.
func (w *wal) appendLocked(frame []byte) (uint64, error) {
	sealFrame(frame, w.segIndex)
	if _, err := w.seg.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	w.segBytes += int64(len(frame))
	w.liveBytes.Add(int64(len(frame)))
	w.appends.Add(1)
	w.bytes.Add(uint64(len(frame)))
	// Publishing the record is this one store, after its Write returned:
	// an fsync that starts after loading appendSeq covers everything the
	// load counted, and nobody ever waits on a number not yet loaded here.
	return w.appendSeq.Add(1), nil
}

// rotateLocked seals the active segment (fsync + close, so everything
// in it is durable) and opens the next one. After a rotation whose open
// failed there is no active segment, and the open is what it retries.
// Callers hold w.mu.
func (w *wal) rotateLocked() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.seg != nil {
		if err := w.sealLocked(); err != nil {
			return err
		}
		w.rotations.Add(1)
	}
	pooled := len(w.pool)
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	if len(w.pool) < pooled {
		w.recycled.Add(1)
	}
	return nil
}

// advanceSynced publishes hi as the durable high-water mark and records
// the group-commit batch size it retired. Callers hold syncMu (the only
// place syncedSeq advances), so the load-compare-store is race-free.
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
}

// addSyncBatches folds this shard's acked-per-fsync histogram into s.
func (w *wal) addSyncBatches(s *BatchStats) {
	for i := range w.batchCounts {
		s.Buckets[i] += w.batchCounts[i].Load()
	}
	s.Sum += w.batchSum.Load()
	s.Count += w.batchN.Load()
}

// syncLag returns how many appended records are not yet durable: what
// the next fsync would retire.
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

// waitDurable blocks until record seq is durable. It is the leader
// commit: the waiter that finds no fsync in flight runs one on its own
// goroutine, covering every record appended so far; the ones that find
// one in flight wait on syncMu for it and return if it covered them. No
// goroutine of the journal's own stands between an append and its ack.
// An fsync failure goes to every waiter it tried to cover.
func (w *wal) waitDurable(seq uint64) error {
	if seq > w.failedHi.Load() && w.syncedSeq.Load() >= seq {
		return nil // someone else's group commit already covered us
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if seq <= w.failedHi.Load() {
		return w.failedErr
	}
	if w.syncedSeq.Load() >= seq {
		return nil // the previous holder's fsync covered our record
	}
	return w.syncLocked()
}

// syncTo is waitDurable for a caller that asks for a sync in its own
// right (Sync, and through it Compact), not for the ack of one append:
// an earlier failure is no answer to it, so it fsyncs again.
func (w *wal) syncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedSeq.Load() >= seq {
		return nil
	}
	return w.syncLocked()
}

// syncLocked fsyncs the active segment and publishes as durable what
// appendSeq read before it: rotation needs syncMu, so every record
// counted by that load and not yet durable finished its Write into
// syncSeg, and the sync path never targets a record it has not seen
// published. Callers hold syncMu.
func (w *wal) syncLocked() error {
	hi := w.appendSeq.Load()
	if err := datasync(w.syncSeg); err != nil {
		w.failedErr = fmt.Errorf("journal: sync: %w", err)
		w.failedHi.Store(hi)
		return w.failedErr
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
		Recycled:  w.recycled.Load(),
		Bytes:     w.bytes.Load(),
	}
}

// close trims, syncs and closes the active segment. Idempotent. A
// waiter that arrives later finds its record published as durable and
// never touches the closed file.
func (w *wal) close() error {
	w.closeOnce.Do(func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.closed = true
		w.syncMu.Lock()
		defer w.syncMu.Unlock()
		if w.seg == nil {
			return
		}
		if w.closeErr = w.sealLocked(); w.seg != nil {
			w.seg.Close() // the cut or the fsync failed; the file goes all the same
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

// errUnsalted refuses a segment whose frames check only under the plain
// CRC, which replaying as torn would read as empty.
var errUnsalted = errors.New("written before segment-salted CRCs; this version does not read it")

// replaySegments reads dir's segments segIdx (ascending) in order,
// stopping after a torn frame that is not the newest segment's crash
// tail (everything after a mid-history tear is unreadable). A frame's
// CRC is checked under its segment's index, so a recycled segment's old
// frames end it like a tear. A tail of zero bytes is no tear: it is the
// reserved space of a segment whose process died before sealing it
// (preallocate), and the clean end of that segment wherever it sits in
// the history. The newest segment's tail, zeros or a tear that was
// never acknowledged, is cut off the file: this process appends to the
// next segment, and a tear left in place would read as mid-history
// damage at the following open and hide everything acknowledged from
// here on. A CRC-clean record too short to carry a sequence prefix
// cannot have been written by this package and counts as torn. It also
// returns the bytes of every frame replayed — the seed for liveBytes,
// so a process restarting on top of a long un-compacted history reaches
// its compaction threshold immediately, not after another threshold's
// worth of fresh appends.
func replaySegments(dir string, segIdx []uint64, rec *Recovered) (recs []seqRecord, frameBytes int64, err error) {
	var lastSeg uint64
	if len(segIdx) > 0 {
		lastSeg = segIdx[len(segIdx)-1]
	}
	for _, idx := range segIdx {
		path := filepath.Join(dir, segmentName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("journal: read segment: %w", err)
		}
		rec.Segments++
		fileSize := int64(len(data))
		for len(data) > 0 {
			payload, size, ok := nextFrame(data, idx)
			if !ok {
				if _, _, unsalted := nextFrame(data, 0); unsalted {
					return nil, 0, fmt.Errorf("journal: segment %s: %w", path, errUnsalted)
				}
				break
			}
			if len(payload) < 1+seqPrefixSize {
				break
			}
			recs = append(recs, seqRecord{
				seq: binary.LittleEndian.Uint64(payload[1:]),
				rec: Record{Kind: payload[0], Data: append([]byte(nil), payload[1+seqPrefixSize:]...)},
			})
			data = data[size:]
		}
		frameBytes += fileSize - int64(len(data))
		torn := int64(len(bytes.TrimRight(data, "\x00")))
		rec.TornTail += torn
		if torn > 0 && idx != lastSeg {
			break
		}
		if len(data) > 0 && idx == lastSeg {
			if err := os.Truncate(path, fileSize-int64(len(data))); err != nil {
				return nil, 0, fmt.Errorf("journal: cut torn tail: %w", err)
			}
		}
	}
	return recs, frameBytes, nil
}
