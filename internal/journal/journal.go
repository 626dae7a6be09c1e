// Package journal is an append-only, CRC-checked write-ahead log: the
// durability substrate of the serving layer. The paper's operational
// mode classifies a continuous stream of unknown download events, and
// the FP/TP accounting the whole system is judged on is only as good as
// the event ledger underneath it — losing an accepted batch in a crash,
// or double-counting a retransmitted one, silently corrupts the 0.1%
// false-positive budget. The journal makes the ingest path
// durable-by-construction: a record acknowledged by AppendFunc survives
// any subsequent kill -9, and recovery reads back exactly the
// acknowledged prefix, discarding at most an unacknowledged torn tail.
//
// There is one journal type, Sharded, and one on-disk layout:
//
//	shard-000/wal-00000001.seg   frame := [u32 len][u32 CRC-32C][kind][u64 seq][data]
//	shard-000/wal-00000002.seg            (little endian; CRC over kind+seq+data)
//	shard-001/wal-00000001.seg   one directory of numbered segments per shard
//
// and nothing else: the log is the state. A single-shard journal is
// N = 1 of the same layout. Each shard is an independent WAL with its
// own group commit; a key picks the shard, a global sequence number in
// every record restores the append order at recovery (sharded.go). A
// segment is created at its full size (SegmentBytes, zeros past the
// last frame) where the platform can reserve it, so that an append and
// its fsync change no file size, and cut down to its frames when it is
// sealed. Recovery replays every segment of every shard, stopping a
// shard at its first torn or corrupt frame — the standard WAL contract
// under torn writes; a tail of zeros is the end of an unsealed segment,
// not a tear — and merges the records by sequence. It never appends to
// a pre-existing segment, and cuts the newest one's tail off at open,
// so a tear is never followed by valid frames.
// Compaction (Sharded.Compact) keeps the log bounded by rewriting the
// entries still live as ordinary records into fresh segments and
// deleting the segments they supersede; recovery does not know it ran.
//
// Durability: AppendFunc is group-committed. Writes land in the shard's
// segment under one lock; the appender then fsyncs the segment itself
// unless an fsync is already in flight, in which case it waits for that
// one and is covered by it or runs the next — so N concurrent appenders
// share one fsync instead of paying N, and a lone one pays no hand-off
// to another goroutine. AppendAsyncFunc skips the wait
// for records the caller can re-derive (the serving layer's verdict
// records, which deterministic re-classification regenerates).
package journal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
)

// frameHeaderSize is the fixed per-record overhead: payload length and
// CRC-32C, each 4 bytes little endian.
const frameHeaderSize = 8

// maxFrameSize bounds one log record (matches the serving layer's
// request budget) so a corrupt length field cannot drive a huge
// allocation.
const maxFrameSize = 1 << 26

// MaxRecordBytes is maxFrameSize for the serving layer, which refuses a
// request body no record could hold.
const MaxRecordBytes = maxFrameSize

// castagnoli is the CRC-32C table (the polynomial storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is what the journal writes segments through.
// *os.File satisfies it; internal/faults decorates it with torn-write
// and partial-fsync injection for crash tests.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a journal. The zero value of every field selects a
// default; Dir is required.
type Options struct {
	// Dir holds the shard directories; it is created if absent.
	Dir string
	// SegmentBytes rotates a shard's active segment once it exceeds this
	// size (default 8 MiB), and is what a new segment is preallocated to.
	SegmentBytes int64
	// OpenFile creates segment files for writing; nil selects
	// os.Create. Fault-injection tests substitute a crashable file here.
	OpenFile func(path string) (File, error)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 8 << 20
}

func (o Options) openFile(path string) (File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.Create(path)
}

// Record is one journaled entry: a caller-defined kind tag and opaque
// payload bytes.
type Record struct {
	Kind byte
	Data []byte
}

// Recovered is what OpenSharded found on disk.
type Recovered struct {
	// Records are the records of every segment present, merged by
	// sequence: append order, oldest first. After a compaction the oldest
	// are its rewrite of the entries then live.
	Records []Record
	// TornTail counts bytes discarded at the end of shards' newest
	// segments because they formed an incomplete or CRC-failing frame —
	// the expected signature of a crash between write and fsync. The
	// zeros of a preallocated tail are not counted.
	TornTail int64
	// Segments is how many segment files were replayed.
	Segments int
}

// Stats counts what the journal did, for /metrics exposition.
type Stats struct {
	Appends     uint64
	Syncs       uint64
	Rotations   uint64
	Compactions uint64
	Bytes       uint64
}

// SyncBatchBounds are the upper bounds (records acked per fsync) of the
// group-commit batch-size histogram, roughly doubling; the implicit
// final bucket is +Inf. A healthy commit path under load shows mass in
// the middle buckets — every fsync retiring many accepts — while mass
// pinned at 1 means appenders are paying per-record fsyncs.
var SyncBatchBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// syncBatchBuckets is len(SyncBatchBounds) plus the +Inf bucket.
const syncBatchBuckets = 10

// BatchStats is a snapshot of the acked-records-per-fsync histogram.
type BatchStats struct {
	// Buckets holds per-bucket (non-cumulative) observation counts,
	// one per SyncBatchBounds entry plus the +Inf bucket.
	Buckets [syncBatchBuckets]uint64
	// Sum is the total records acked across all fsyncs; Count is the
	// number of fsyncs that advanced the durable high-water mark.
	Sum   uint64
	Count uint64
}

// AppendFrame appends one record to dst in the journal's frame encoding
// — `[u32 payload length][u32 CRC-32C][kind][data]`, CRC over
// kind+data — and returns the extended slice. Anything framed with it
// round-trips through DecodeFrames, so subsystems that ship
// journal-shaped records over other channels (the serving layer's
// ledger handoff chunks) share the WAL's corruption detection instead
// of inventing their own.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	dst = append(dst, payload...)
	sealFrame(dst[off:])
	return dst
}

// sealFrame fills in the length and CRC of a frame whose header bytes
// are reserved and whose kind+data are already in place.
func sealFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-frameHeaderSize))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeaderSize:], castagnoli))
}

// nextFrame parses the frame at the start of data, returning its
// kind+data payload (aliasing data) and total size; ok is false when
// the bytes do not form a complete, CRC-clean frame.
func nextFrame(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n == 0 || n > maxFrameSize || frameHeaderSize+int64(n) > int64(len(data)) {
		return nil, 0, false
	}
	size = frameHeaderSize + int(n)
	payload = data[frameHeaderSize:size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, false
	}
	return payload, size, true
}

// DecodeFrames parses a byte stream of frames produced by AppendFrame,
// returning the valid record prefix and how many trailing bytes did not
// form a complete, CRC-clean frame. Record payloads are copied out of
// data, so the caller may reuse the buffer. A non-zero tail means
// truncation or corruption, e.g. a damaged handoff chunk.
func DecodeFrames(data []byte) (recs []Record, tail int64) {
	for len(data) > 0 {
		payload, size, ok := nextFrame(data)
		if !ok {
			return recs, int64(len(data))
		}
		recs = append(recs, Record{Kind: payload[0], Data: append([]byte(nil), payload[1:]...)})
		data = data[size:]
	}
	return recs, 0
}
