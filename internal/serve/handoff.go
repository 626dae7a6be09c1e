package serve

import (
	"fmt"
	"slices"

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
// retransmitted freely. Seq orders chunks within one export; IDs names
// the request each record inside concerns, in order, and Entries counts
// them.
type HandoffChunk struct {
	Seq     int
	Entries int
	IDs     []string
	Data    []byte
}

// appendRecord frames one record onto the last chunk, opening a new
// chunk when that one would grow past maxBytes — the one place a chunk
// boundary is decided. A record larger than maxBytes travels alone.
func appendRecord(chunks []HandoffChunk, maxBytes int, kind byte, id string, payload []byte) []HandoffChunk {
	if n := len(chunks); n == 0 || len(chunks[n-1].Data)+len(payload) > maxBytes {
		chunks = append(chunks, HandoffChunk{Seq: n})
	}
	c := &chunks[len(chunks)-1]
	c.Data = journal.AppendFrame(c.Data, kind, payload)
	c.IDs = append(c.IDs, id)
	c.Entries++
	return chunks
}

// SplitExport re-chunks an export stream (what /admin/handoff/export
// answers) by destination: dest names where each record's request ID
// belongs now, "" leaves the record out. Each destination's chunks keep
// the stream's order, stay within DefaultHandoffChunkBytes and import
// independently. Any framing damage rejects the whole stream: the
// source still holds everything, re-pulling is cheap, and importing a
// prefix of a damaged stream would hide the damage.
func SplitExport(stream []byte, dest func(id string) string) (map[string][]HandoffChunk, error) {
	recs, tail := journal.DecodeFrames(stream)
	if tail != 0 {
		return nil, fmt.Errorf("serve: handoff stream: %d trailing bytes fail CRC framing", tail)
	}
	out := make(map[string][]HandoffChunk)
	for _, r := range recs {
		id, _, err := splitPayload(r.Data)
		if err != nil {
			return nil, fmt.Errorf("serve: handoff stream: %w", err)
		}
		if to := dest(id); to != "" {
			out[to] = appendRecord(out[to], DefaultHandoffChunkBytes, r.Kind, id, r.Data)
		}
	}
	return out, nil
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
// every completed (request-ID, response-body) pair first, in completion
// order — so the importer's eviction queue inherits it — then every
// pending accepted-but-unresulted batch in sorted-ID order; an export is
// deterministic for a given ledger state. The capture is atomic
// (Ledger.live), which is what makes exporting safe against a
// concurrent Compact — an entry present when ExportRange is called
// cannot vanish from the export because a compaction or eviction ran
// mid-iteration. migrating must be fast (it runs under the ledger lock)
// and must not call back into the ledger. maxChunkBytes <= 0 selects
// DefaultHandoffChunkBytes. An empty range exports zero chunks, not an
// error.
func (l *Ledger) ExportRange(migrating func(id string) bool, maxChunkBytes int) ([]HandoffChunk, error) {
	if migrating == nil {
		return nil, fmt.Errorf("serve: handoff export: nil predicate")
	}
	if maxChunkBytes <= 0 {
		maxChunkBytes = DefaultHandoffChunkBytes
	}
	entries, err := l.live(migrating)
	if err != nil {
		return nil, fmt.Errorf("serve: handoff export %w", err)
	}
	var chunks []HandoffChunk
	var payload []byte
	for _, e := range entries {
		payload = appendPayload(payload[:0], e.id, e.body)
		chunks = appendRecord(chunks, maxChunkBytes, e.kind, e.id, payload)
	}
	return chunks, nil
}

// ImportChunk installs one exported chunk into this ledger. Every entry
// is journaled BEFORE the call returns — the chunk is fsynced as a
// group, so an importer that acknowledges a chunk can never lose it to
// a crash (the ack is the transfer of authority; after it the source
// may forget the range). The import is idempotent: entries whose ID
// this ledger already holds are skipped, so duplicated or reordered
// chunk retransmissions — and a full chunk replay after a kill -9
// mid-import — converge to the same state. First wins, as in Result: a
// held result keeps its body whatever the chunk says, in memory as in
// the journal, so retransmits stay byte-identical.
// Imported results pass through the same MaxResults retention bound as
// locally-served ones, so handoff cannot balloon the dedup window.
func (l *Ledger) ImportChunk(data []byte) (HandoffImportStats, error) {
	var st HandoffImportStats
	recs, tail := journal.DecodeFrames(data)
	if tail != 0 {
		return st, fmt.Errorf("serve: handoff import: %d trailing bytes fail CRC framing", tail)
	}
	// One import at a time: a retransmit of this chunk waits here until
	// every entry it would skip as held has been appended and synced.
	l.importMu.Lock()
	defer l.importMu.Unlock()
	for _, r := range recs {
		e, err := decodeRecord(r)
		if err != nil {
			return st, fmt.Errorf("serve: handoff import: %w", err)
		}
		// Install, then append — the order every writer keeps. Were the
		// record appended first, a compaction between the two steps would
		// seal it, rewrite a state without it and delete its only copy,
		// and the Sync below would still acknowledge it.
		l.mu.Lock()
		l.awaitSettledLocked(e.id)
		if l.holdsLocked(e) {
			l.mu.Unlock()
			st.Duplicates++
			continue
		}
		accepted, wasPending := l.pending[e.id] // what an imported result resolves
		l.installLocked(e)
		l.syncing[e.id] = struct{}{}
		l.mu.Unlock()
		err = l.j.AppendAsyncFunc(e.id, e.kind, func(dst []byte) []byte { return append(dst, r.Data...) })
		l.mu.Lock()
		if l.settleLocked(e.id); err != nil {
			// Not journaled, so not held: a retry of the chunk must find
			// the entry missing and append it, not skip it as a duplicate.
			l.forgetLocked(e)
			if wasPending {
				l.pending[e.id] = accepted
			}
			l.mu.Unlock()
			return st, fmt.Errorf("serve: handoff import %s: %w", e.id, err)
		}
		l.mu.Unlock()
		if e.kind == recResult {
			st.Imported++
		} else {
			st.Pending++
		}
	}
	// One group fsync (per journal shard) acks the whole chunk: cheaper
	// than per-entry durability, still strictly before the caller's
	// acknowledgment.
	if err := l.j.Sync(); err != nil {
		return st, fmt.Errorf("serve: handoff import: %w", err)
	}
	return st, nil
}

// forgetLocked removes the entry an import just installed and could not
// journal. A result the install evicted to stay within MaxResults is
// not brought back: the bound dropped its oldest entry one result early,
// which a retransmit of that ID answers by reclassifying, as after any
// eviction. Callers hold l.mu.
func (l *Ledger) forgetLocked(e entry) {
	if e.kind == recAccept {
		delete(l.pending, e.id)
		return
	}
	delete(l.results, e.id)
	if i := slices.Index(l.order, e.id); i >= 0 {
		l.order = slices.Delete(l.order, i, i+1)
	}
}
