package serve

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/journal"
)

// Ledger handoff: the export/import plane that lets dedup state follow
// key ownership across cluster membership changes. A replica leaving
// the ring (or returning from a crash with history for ranges it no
// longer owns) exports its ledger as chunks of journal-framed records;
// the new owner imports them into its own journal, after which a
// retransmit of any migrated request ID is answered byte-identically
// from the importer's ledger instead of being silently re-classified —
// the exactly-once contract survives churn instead of quietly
// downgrading to at-least-once.
//
// The wire unit is the journal's own record format: each entry is a
// frame (journal.AppendFrame) of kind recResult (`id\n` + the exact
// response body served) or recAccept (`id\n` + the batch's event
// lines). Reusing the WAL encoding means (1) chunks inherit per-record
// CRC-32C corruption detection, (2) the importer can journal received
// entries verbatim, and (3) recovery after a crash mid-import replays
// them through the exact code path that replays native records.

// DefaultHandoffChunkBytes bounds one handoff chunk's payload when the
// caller passes no explicit budget: large enough to amortize per-chunk
// HTTP and fsync overhead, small enough that a retransmitted chunk
// (idempotent, but re-sent in full) stays cheap.
const DefaultHandoffChunkBytes = 256 << 10

// HandoffChunk is one slab of exported ledger state: Data holds
// journal-framed records (kind recResult / recAccept), self-delimiting
// and CRC-checked, so chunks can be concatenated, split and
// retransmitted freely. Seq orders chunks within one export; Entries
// counts the records inside.
type HandoffChunk struct {
	Seq     int
	Entries int
	Data    []byte
}

// HandoffImportStats reports what one ImportChunk call did.
type HandoffImportStats struct {
	// Imported counts completed results journaled and added.
	Imported int
	// Pending counts accept-only entries journaled and added; the
	// importer's recovery/defer machinery classifies them.
	Pending int
	// Duplicates counts entries skipped because this ledger already
	// holds them — the idempotency path a retransmitted chunk takes.
	Duplicates int
}

// ExportRange snapshots the ledger entries whose request ID the
// predicate claims are migrating and renders them as CRC-framed chunks:
// every completed (request-ID, response-body) pair first, then every
// pending accepted-but-unresulted batch, both in sorted-ID order so an
// export is deterministic for a given ledger state. The capture is
// atomic: both maps are walked under the ledger lock (bodies and event
// slices are immutable once stored, so retaining references pins a
// consistent view), which is what makes exporting safe against a
// concurrent Compact — an entry present when ExportRange is called
// cannot vanish from the export because a compaction snapshot or
// eviction ran mid-iteration. migrating must be fast (it runs under the
// ledger lock) and must not call back into the ledger. maxChunkBytes <=
// 0 selects DefaultHandoffChunkBytes. An empty range exports zero
// chunks, not an error.
func (l *Ledger) ExportRange(migrating func(id string) bool, maxChunkBytes int) ([]HandoffChunk, error) {
	if migrating == nil {
		return nil, fmt.Errorf("serve: handoff export: nil predicate")
	}
	if maxChunkBytes <= 0 {
		maxChunkBytes = DefaultHandoffChunkBytes
	}
	l.mu.Lock()
	doneIDs := sortedIDs(l.results, migrating)
	bodies := make([][]byte, len(doneIDs))
	for i, id := range doneIDs {
		bodies[i] = l.results[id]
	}
	pendIDs := sortedIDs(l.pending, migrating)
	pendEvents := make([][]dataset.DownloadEvent, len(pendIDs))
	for i, id := range pendIDs {
		pendEvents[i] = l.pending[id]
	}
	l.mu.Unlock()

	// Encode outside the lock: serving traffic keeps flowing while the
	// chunks render.
	var chunks []HandoffChunk
	cur := HandoffChunk{}
	flush := func() {
		if cur.Entries > 0 {
			cur.Seq = len(chunks)
			chunks = append(chunks, cur)
			cur = HandoffChunk{}
		}
	}
	add := func(kind byte, payload []byte) {
		if cur.Entries > 0 && len(cur.Data)+len(payload) > maxChunkBytes {
			flush()
		}
		cur.Data = journal.AppendFrame(cur.Data, kind, payload)
		cur.Entries++
	}
	var payload []byte
	for i, id := range doneIDs {
		payload = append(payload[:0], id...)
		payload = append(payload, '\n')
		payload = append(payload, bodies[i]...)
		add(recResult, payload)
	}
	for i, id := range pendIDs {
		payload = append(payload[:0], id...)
		payload = append(payload, '\n')
		for j := range pendEvents[i] {
			line, err := export.MarshalEventLine(&pendEvents[i][j])
			if err != nil {
				return nil, fmt.Errorf("serve: handoff export %s: %w", id, err)
			}
			payload = append(payload, line...)
			payload = append(payload, '\n')
		}
		add(recAccept, payload)
	}
	flush()
	return chunks, nil
}

// ImportChunk installs one exported chunk into this ledger. Every entry
// is journaled BEFORE the call returns — the chunk is fsynced as a
// group, so an importer that acknowledges a chunk can never lose it to
// a crash (the ack is the transfer of authority; after it the source
// may forget the range). The import is idempotent: entries whose ID
// this ledger already holds are skipped, so duplicated or reordered
// chunk retransmissions — and a full chunk replay after a kill -9
// mid-import — converge to the same state. First-wins matches the
// ledger's Result semantics; since exported bodies are byte-exact
// copies, either copy answers retransmits identically. Imported
// results pass through the same MaxResults retention bound as
// locally-served ones, so handoff cannot balloon the dedup window.
func (l *Ledger) ImportChunk(data []byte) (HandoffImportStats, error) {
	var st HandoffImportStats
	recs, tail := journal.DecodeFrames(data)
	if tail != 0 {
		return st, fmt.Errorf("serve: handoff import: %d trailing bytes fail CRC framing", tail)
	}
	for _, r := range recs {
		id, body, events, err := decodeRecord(r)
		if err != nil {
			return st, fmt.Errorf("serve: handoff import: %w", err)
		}
		l.mu.Lock()
		held := l.holdsLocked(id, r.Kind)
		l.mu.Unlock()
		if held {
			st.Duplicates++
			continue
		}
		// Journal before the in-memory install (and before any ack can
		// escape the caller): a crash after the append replays the
		// record on recovery; a crash before it leaves nothing — never
		// an acknowledged entry whose only copy was in memory.
		if err := l.j.AppendAsyncFunc(id, r.Kind, func(dst []byte) []byte {
			return append(dst, r.Data...)
		}); err != nil {
			return st, fmt.Errorf("serve: handoff import %s: %w", id, err)
		}
		l.mu.Lock()
		switch {
		case l.holdsLocked(id, r.Kind): // raced a local accept or result
			st.Duplicates++
		case r.Kind == recResult:
			l.storeResultLocked(id, body)
			delete(l.pending, id)
			st.Imported++
		default:
			l.pending[id] = events
			st.Pending++
		}
		l.mu.Unlock()
	}
	// One group fsync (per journal shard) acks the whole chunk: cheaper
	// than per-entry durability, still strictly before the caller's
	// acknowledgment.
	if err := l.j.Sync(); err != nil {
		return st, fmt.Errorf("serve: handoff import: %w", err)
	}
	return st, nil
}

// holdsLocked reports whether this ledger already holds what a record
// of the given kind for id would install: a result if it has the
// result, an accept if the batch is completed or pending. Callers hold
// l.mu.
func (l *Ledger) holdsLocked(id string, kind byte) bool {
	_, done := l.results[id]
	if done || kind == recResult {
		return done
	}
	_, pending := l.pending[id]
	return pending
}
