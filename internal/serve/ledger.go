package serve

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/journal"
)

// Journal record kinds used by the ledger. An accept record carries a
// request ID plus the batch's event lines; a result record carries the
// same ID plus the verdict lines served for it. Payloads reuse the wire
// format verbatim: `id\n` followed by one line-JSON record per line, so
// a journal segment is greppable with the same tooling as a dataset
// file or a /classify body.
const (
	recAccept byte = 1
	recResult byte = 2
)

// Ledger is the exactly-once verdict ledger: a write-ahead journal of
// accepted /classify batches keyed by client-supplied request IDs.
//
// The protocol, per batch:
//
//  1. AcceptWire(id, events, body) — journaled durably (fsync, group-committed)
//     BEFORE any response bytes leave the server. A batch the client
//     was told about can therefore never vanish in a crash.
//  2. Result(id, verdicts) — journaled asynchronously. Losing a result
//     record in a crash is harmless: recovery finds the accept with no
//     result and replays the batch through the (deterministic) engine,
//     regenerating byte-identical verdicts.
//  3. Retransmits of an already-resulted ID are answered from the
//     ledger (Lookup) without reclassification, so a response lost on
//     the wire never double-counts events in the FP/TP accounting.
type Ledger struct {
	j *journal.Sharded

	// importMu serializes ImportChunk calls, so a retransmitted chunk
	// cannot find an entry installed whose append (and fsync) the first
	// copy of the chunk has yet to finish. Taken before mu and the journal.
	importMu sync.Mutex

	mu      sync.Mutex
	pending map[string][]dataset.DownloadEvent // guarded by mu
	// results maps request ID -> the exact response body served for it;
	// guarded by mu.
	// (verdict lines, '\n'-terminated). Storing the batch as one opaque
	// byte blob instead of parsed records keeps the dedup state nearly
	// invisible to the garbage collector — a long-lived daemon holds one
	// pointer per batch, not one per verdict field — and makes
	// retransmit replies byte-identical by construction.
	results map[string][]byte
	// order lists result IDs oldest-completed first (guarded by mu) — the eviction queue
	// bounding results at maxResults entries, so a long-running daemon's
	// dedup state (and every compaction's rewrite) stays O(retransmit
	// window), not O(total request history). Compaction emits in this
	// order, so it survives a restart.
	order      []string
	maxResults int
	// rewritten is how many bytes of the live log the last compaction
	// wrote (guarded by mu): the part of journal.LiveBytes no request
	// appended, and the cost the compaction trigger scales with — see
	// Result.
	rewritten int64

	// compactBytes triggers compaction once requests have journaled that
	// many bytes since the last one (-1 = never).
	compactBytes int64
	// compactErrors counts triggered compactions that failed; the log
	// they would have truncated is intact and the next Result retries.
	compactErrors atomic.Uint64
}

// LedgerOptions configures OpenLedger.
type LedgerOptions struct {
	// Journal configures the underlying write-ahead log; Dir is
	// required.
	Journal journal.Options
	// Shards stripes the journal over this many independent WALs, each
	// with its own group commit, so accept fsyncs overlap
	// across cores (journal.OpenSharded). Request IDs pick the shard by
	// FNV affinity; recovery merges all shards by global sequence.
	// Values <= 1 mean one shard of the same layout; the shard
	// directories already on disk can only raise the count.
	Shards int
	// CompactBytes compacts the journal (the live entries rewritten into
	// fresh segments, the older segments deleted) whenever the bytes
	// journaled since the last compaction — cumulative across segment
	// rotations, not the size of any one segment — exceed this threshold.
	// Default 32 MiB; negative disables.
	CompactBytes int64
	// MaxResults bounds how many completed batches the dedup cache
	// retains; beyond it the oldest-completed results are evicted.
	// Size it to the client retransmit window: a retransmit of an
	// evicted ID is re-accepted and reclassified (deterministically,
	// so the verdicts match) instead of being answered from the ledger.
	// Default 65536; negative disables eviction.
	MaxResults int
}

// LedgerRecovery reports what OpenLedger reconstructed from disk.
type LedgerRecovery struct {
	// Pending maps request IDs that were accepted but have no journaled
	// result — the batches a restarted daemon must replay through the
	// engine (RecoverLedger does exactly that).
	Pending map[string][]dataset.DownloadEvent
	// Results is how many completed batches were recovered.
	Results int
	// TornTail is the number of bytes of unacknowledged torn tail the
	// journal discarded (nonzero after a kill -9 mid-write).
	TornTail int64
}

// OpenLedger opens (or creates) the journal in opts.Journal.Dir and
// reconstructs the ledger state a previous process left behind by
// replaying its records — whether a request or a compaction wrote them.
func OpenLedger(opts LedgerOptions) (*Ledger, *LedgerRecovery, error) {
	j, rec, err := journal.OpenSharded(opts.Journal, opts.Shards)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: ledger: %w", err)
	}
	l := &Ledger{
		j:            j,
		pending:      make(map[string][]dataset.DownloadEvent),
		results:      make(map[string][]byte),
		compactBytes: opts.CompactBytes,
		maxResults:   opts.MaxResults,
	}
	if l.compactBytes == 0 {
		l.compactBytes = 32 << 20
	}
	if l.maxResults == 0 {
		l.maxResults = 65536
	}
	for _, r := range rec.Records {
		e, err := decodeRecord(r)
		if err != nil {
			j.Close()
			return nil, nil, fmt.Errorf("serve: ledger replay: %w", err)
		}
		l.installLocked(e)
	}
	// What a compaction of the recovered state would rewrite, near
	// enough: the trigger's reference until the first one runs.
	for id, body := range l.results {
		l.rewritten += int64(len(id) + len(body))
	}
	out := &LedgerRecovery{
		Pending:  make(map[string][]dataset.DownloadEvent, len(l.pending)),
		Results:  len(l.results),
		TornTail: rec.TornTail,
	}
	for id, ev := range l.pending {
		out.Pending[id] = ev
	}
	return l, out, nil
}

// entry is one ledger entry in record form, as the journal and a
// handoff chunk carry it: a completed batch (kind recResult, body the
// exact response served) or an accepted one still without a result
// (kind recAccept, body the batch's event lines). The record payload is
// `id\n` + body.
type entry struct {
	kind   byte
	id     string
	body   []byte
	events []dataset.DownloadEvent // recAccept: body, parsed
}

// appendPayload renders a record payload — the one encoder AcceptWire,
// Result, compaction and ExportRange write records with.
func appendPayload[B ~string | ~[]byte](dst []byte, id string, body B) []byte {
	dst = append(dst, id...)
	dst = append(dst, '\n')
	return append(dst, body...)
}

// splitPayload is appendPayload's inverse — the one reader of the
// payload layout, for replay, import and SplitExport.
func splitPayload(data []byte) (id string, body []byte, err error) {
	idx := bytes.IndexByte(data, '\n')
	if idx <= 0 {
		return "", nil, fmt.Errorf("record without id line")
	}
	return string(data[:idx]), data[idx+1:], nil
}

// appendEventLines renders events as '\n'-terminated line-JSON, the
// body of an accept record.
func appendEventLines(dst []byte, events []dataset.DownloadEvent) ([]byte, error) {
	for i := range events {
		var err error
		if dst, err = export.AppendEventLine(dst, &events[i]); err != nil {
			return nil, err
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// decodeRecord splits a journal (or handoff) record into its entry. A
// result's body is served as-is on dedup and needs no parsing; an
// accept's event lines are parsed out of one string copy of the body,
// each into its slot of the entry's slice.
func decodeRecord(r journal.Record) (entry, error) {
	id, body, err := splitPayload(r.Data)
	if err != nil {
		return entry{}, err
	}
	e := entry{kind: r.Kind, id: id, body: body}
	switch r.Kind {
	case recResult:
		return e, nil
	case recAccept:
		lines := string(e.body)
		e.events = make([]dataset.DownloadEvent, 0, lineCapacity(lines, minEventLine))
		for len(lines) > 0 {
			line, rest, _ := strings.Cut(lines, "\n")
			if lines = rest; line == "" {
				continue
			}
			e.events = append(e.events, dataset.DownloadEvent{})
			if err := export.ParseEventLineInto(&e.events[len(e.events)-1], line); err != nil {
				return entry{}, err
			}
		}
		return e, nil
	}
	return entry{}, fmt.Errorf("unknown record kind %d", r.Kind)
}

// installLocked applies one replayed or imported record to the
// in-memory state, last write wins: replay follows the log, where a
// second result for an ID is the reclassification of a batch evicted and
// accepted again, and is the one the dead process held. An accept of a
// completed batch changes nothing. Callers hold l.mu (or, during
// OpenLedger, have exclusive access).
func (l *Ledger) installLocked(e entry) {
	if e.kind == recResult {
		l.storeResultLocked(e.id, e.body)
		delete(l.pending, e.id)
	} else if _, done := l.results[e.id]; !done {
		l.pending[e.id] = e.events
	}
}

// holdsLocked reports whether the ledger already holds what e would
// install: a result if it has the result, an accept if the batch is
// completed or pending. An import skips such an entry — first wins, as
// in Result, so the body a retransmit is answered with never changes
// under it. Callers hold l.mu.
func (l *Ledger) holdsLocked(e entry) bool {
	_, done := l.results[e.id]
	if done || e.kind == recResult {
		return done
	}
	_, pending := l.pending[e.id]
	return pending
}

// live lists the entries keep admits (all of them when keep is nil):
// the completed batches in completion order, then the pending ones in
// sorted-ID order with their event lines rendered. The capture is
// atomic — both maps are walked under the ledger lock; bodies and event
// slices are immutable once stored, so retaining references pins a
// consistent view — and the rendering happens outside it.
func (l *Ledger) live(keep func(id string) bool) ([]entry, error) {
	l.mu.Lock()
	out := make([]entry, 0, len(l.order)+len(l.pending))
	for _, id := range l.order {
		if keep == nil || keep(id) {
			out = append(out, entry{kind: recResult, id: id, body: l.results[id]})
		}
	}
	for _, id := range sortedIDs(l.pending, keep) {
		out = append(out, entry{kind: recAccept, id: id, events: l.pending[id]})
	}
	l.mu.Unlock()
	for i := range out {
		if e := &out[i]; e.kind == recAccept {
			var err error
			if e.body, err = appendEventLines(nil, e.events); err != nil {
				return nil, fmt.Errorf("%s: %w", e.id, err)
			}
		}
	}
	return out, nil
}

// sortedIDs returns the keys of m that keep accepts (all of them when
// keep is nil) in sorted order, so whatever walks them is deterministic.
func sortedIDs[V any](m map[string]V, keep func(id string) bool) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		if keep == nil || keep(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// storeResultLocked records the response body served for id and evicts
// the oldest-completed batches once more than maxResults are retained.
// Callers hold l.mu (or, during OpenLedger, have exclusive access).
// Evicted IDs keep their journal records until the next compaction
// leaves them out, but recovery replays through this same bound, so a
// restart cannot resurrect an unbounded history either.
func (l *Ledger) storeResultLocked(id string, body []byte) {
	if _, ok := l.results[id]; !ok {
		l.order = append(l.order, id)
	}
	l.results[id] = body
	if l.maxResults <= 0 {
		return
	}
	for len(l.order) > l.maxResults {
		delete(l.results, l.order[0])
		l.order[0] = "" // release the string so the sliced-off slot doesn't pin it
		l.order = l.order[1:]
	}
}

// AcceptWire journals a batch durably under its request ID and marks it
// pending. body is the batch's own wire bytes (the non-empty line-JSON
// event lines of the request, '\n'-terminated), journaled verbatim as
// `id\n` + body, rendered straight into the journal's frame buffer —
// no re-marshaling, no allocation beyond the pending-map entry. body
// and events must describe the same batch. It returns only after the
// record is fsynced (group-committed with concurrent accepts); on
// journal failure the in-memory pending mark is rolled back so a
// retransmit can try again cleanly. Like every writer it installs in
// memory before it appends, so a compaction that seals the record's
// segment finds the entry in the state it rewrites.
func (l *Ledger) AcceptWire(id string, events []dataset.DownloadEvent, body string) error {
	if id == "" {
		return fmt.Errorf("serve: ledger: empty request id")
	}
	l.mu.Lock()
	if _, done := l.results[id]; done {
		l.mu.Unlock()
		return nil // already served; caller will hit Lookup
	}
	l.pending[id] = events
	l.mu.Unlock()
	err := l.j.AppendFunc(id, recAccept, func(dst []byte) []byte { return appendPayload(dst, id, body) })
	if err != nil {
		l.mu.Lock()
		delete(l.pending, id)
		l.mu.Unlock()
		return fmt.Errorf("serve: ledger accept %s: %w", id, err)
	}
	return nil
}

// Result journals the verdicts served for id (asynchronously — a lost
// result record is re-derived by recovery) and resolves the pending
// mark. The first result for an ID wins; a concurrent duplicate (e.g. a
// retransmit raced through classification) is dropped, keeping the
// accounting exactly-once. The returned body is the response to serve
// for id — the winner's bytes, identical across retransmits. A
// compaction this call triggers is housekeeping, not part of the
// request: its failure is logged and counted, never returned.
func (l *Ledger) Result(id string, verdicts []VerdictRecord) ([]byte, error) {
	// Rendered by the same append encoder verdictResponse uses, so the
	// journaled body a dedup replay serves is byte-identical to what a
	// stateless response would have been.
	body := appendVerdictBody(make([]byte, 0, verdictBodySize(verdicts)), verdicts)
	l.mu.Lock()
	if prev, done := l.results[id]; done {
		l.mu.Unlock()
		return prev, nil
	}
	l.storeResultLocked(id, body)
	delete(l.pending, id)
	rewritten := l.rewritten
	l.mu.Unlock()
	err := l.j.AppendAsyncFunc(id, recResult, func(dst []byte) []byte { return appendPayload(dst, id, body) })
	if err != nil {
		return body, fmt.Errorf("serve: ledger result %s: %w", id, err)
	}
	// Compaction trigger: the log/state-ratio rule. A compaction's cost
	// is one rewrite of the retained state — O(state) of encode, write
	// and fsync — so firing it every fixed CompactBytes makes the
	// amortized cost per request grow linearly with the retained dedup
	// window. Requiring the bytes requests journaled since the last
	// compaction (the live log minus its rewrite) to also outgrow a
	// multiple of that rewrite bounds the amortized cost per journaled
	// byte by a constant, at the price of a bounded extra replay debt.
	// Comparing against the previous rewrite (not the live state) keeps
	// the trigger live: the log grows without bound between compactions
	// while the reference size stays fixed, so compaction always
	// eventually fires even when state grows as fast as the log.
	if threshold := l.compactBytes; threshold > 0 {
		if p := compactRewriteFactor * rewritten; p > threshold {
			threshold = p
		}
		if l.j.LiveBytes()-rewritten > threshold {
			if err := l.Compact(); err != nil {
				l.compactErrors.Add(1)
				log.Printf("serve: ledger: compaction failed, journal left uncompacted: %v", err)
			}
		}
	}
	return body, nil
}

// compactRewriteFactor is the log/state ratio that arms compaction: the
// bytes journaled since the last compaction must exceed both
// CompactBytes and this multiple of what that compaction rewrote. 5
// keeps the amortized rewrite cost at ~20% of the bytes-proportional
// journaling work while capping the recovery replay at 6x the state it
// would load anyway. It is the cadence of the snapshot file's 4×: that
// file JSON-escaped every reply, measured 1.21× the bytes of the same
// replies as records, so 4 × snapshot ≈ 4.85 × rewrite.
const compactRewriteFactor = 5

// Lookup returns the response body journaled for id, if the batch
// completed.
func (l *Ledger) Lookup(id string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.results[id]
	return v, ok
}

// LookupVerdicts parses the journaled response body for id back into
// verdict records — the introspection/testing counterpart of Lookup.
func (l *Ledger) LookupVerdicts(id string) ([]VerdictRecord, bool) {
	body, ok := l.Lookup(id)
	if !ok {
		return nil, false
	}
	verdicts, err := parseVerdictBody(body)
	if err != nil {
		return nil, false
	}
	return verdicts, true
}

// IsPending reports whether id was accepted but has no result yet.
func (l *Ledger) IsPending(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.pending[id]
	return ok
}

// PendingEvents returns the journaled events for a pending id (nil if
// resolved or unknown).
func (l *Ledger) PendingEvents(id string) []dataset.DownloadEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending[id]
}

// PendingIDs returns the pending request IDs in sorted order, so
// recovery replays are deterministic.
func (l *Ledger) PendingIDs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedIDs(l.pending, nil)
}

// CompletedIDs returns the request IDs with journaled results, in
// sorted order — the lifecycle harvester's entry point for draining
// served ground truth deterministically.
func (l *Ledger) CompletedIDs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sortedIDs(l.results, nil)
}

// Counts returns (pending, completed) batch counts.
func (l *Ledger) Counts() (pending, completed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending), len(l.results)
}

// Compact rewrites the journal down to the live entries — the retained
// results in completion order, then the pending accepts — as the same
// records requests write, and drops the segments they supersede
// (journal.Compact). The state is captured with every journal shard's
// write lock held and the older segments sealed; since AcceptWire,
// Result and ImportChunk install an entry in memory before they append
// its record, every record in a sealed segment is either in the capture
// or about an ID the ledger has evicted, and a record appended after
// the capture lands behind the rewrite and wins the replay — the
// exactly-once contract holds across compaction. (Lock order is journal
// → ledger; no writer appends while holding l.mu, so this cannot
// deadlock.)
func (l *Ledger) Compact() error {
	ran := false // stays false when a compaction was already in flight
	rewritten, err := l.j.Compact(func(put func(key string, kind byte, build func(dst []byte) []byte) error) error {
		ran = true
		entries, err := l.live(nil)
		if err != nil {
			return fmt.Errorf("serve: ledger compact %w", err)
		}
		for _, e := range entries {
			if err := put(e.id, e.kind, func(dst []byte) []byte { return appendPayload(dst, e.id, e.body) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || !ran {
		return err
	}
	// Only a rewrite that reached the disk moves the next trigger.
	l.mu.Lock()
	l.rewritten = rewritten
	l.mu.Unlock()
	return nil
}

// Stats exposes the underlying journal counters, aggregated across
// shards.
func (l *Ledger) Stats() journal.Stats { return l.j.Stats() }

// JournalMetrics snapshots everything /metrics exposes about the commit
// path: aggregate counters, per-shard counters and commit lag, and
// the group-commit batch-size histogram.
func (l *Ledger) JournalMetrics() JournalMetrics {
	return JournalMetrics{
		Stats:         l.j.Stats(),
		Shards:        l.j.ShardStats(),
		Lag:           l.j.ShardLag(),
		SyncBatch:     l.j.SyncBatches(),
		CompactErrors: l.compactErrors.Load(),
	}
}

// Close syncs and closes the journal. Idempotent.
func (l *Ledger) Close() error { return l.j.Close() }

// RecoverLedger replays every pending (accepted-but-unresulted) batch
// from a crash through the engine and journals the regenerated results:
// the boot-time half of the exactly-once contract. Classification is
// deterministic, so the replayed verdicts are byte-identical to the
// ones the dead process would have served. Returns the number of
// batches replayed.
func RecoverLedger(engine *Engine, l *Ledger, rec *LedgerRecovery) (int, error) {
	if rec == nil || len(rec.Pending) == 0 {
		return 0, nil
	}
	replayed := 0
	for _, id := range l.PendingIDs() {
		events := l.PendingEvents(id)
		if events == nil {
			continue
		}
		verdicts, err := classifyInSlices(engine, events, func(slice []dataset.DownloadEvent) ([]VerdictRecord, error) {
			return engine.ClassifyBatch(context.Background(), slice)
		})
		if err != nil {
			return replayed, fmt.Errorf("serve: recover %s: %w", id, err)
		}
		if _, err := l.Result(id, verdicts); err != nil {
			return replayed, err
		}
		replayed++
	}
	return replayed, nil
}

// classifyInSlices classifies a pending batch in slices of at most the
// engine's capacity. Admission is all-or-nothing, so a batch journaled
// under a larger -queue than this process runs with would be refused
// whole on every attempt; verdicts are per event, so the slices'
// answers concatenate to the unsliced one.
func classifyInSlices(engine *Engine, events []dataset.DownloadEvent, classify func([]dataset.DownloadEvent) ([]VerdictRecord, error)) ([]VerdictRecord, error) {
	verdicts := make([]VerdictRecord, 0, len(events))
	for len(events) > 0 {
		n := min(len(events), engine.Capacity())
		v, err := classify(events[:n])
		if err != nil {
			return nil, err
		}
		verdicts = append(verdicts, v...)
		events = events[n:]
	}
	return verdicts, nil
}
