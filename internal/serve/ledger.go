package serve

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/obs"
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
// /classify batches keyed by client-supplied request IDs. What a reply
// says is durable before the reply leaves (DESIGN.md §9):
//
//  1. A batch answered directly is classified first, and Result(id,
//     verdicts) returns once the reply's record is fsynced (group-
//     committed). A crash before that leaves nothing: the client heard
//     nothing and retransmits under the same ID.
//  2. A batch answered 202 is journaled by AcceptWire, durably, first;
//     its Result is appended asynchronously, because recovery replays
//     the accept through the deterministic engine to the same bytes.
//  3. Retransmits of a resulted ID are answered from the ledger
//     (Lookup), never before its record is durable, so a response lost
//     on the wire never double-counts events in the FP/TP accounting.
type Ledger struct {
	j *journal.Sharded

	// importMu serializes ImportChunk calls, so a retransmitted chunk
	// cannot find an entry installed whose append (and fsync) the first
	// copy of the chunk has yet to finish. Taken before mu and the journal.
	importMu sync.Mutex

	mu      sync.Mutex
	pending map[string][]dataset.DownloadEvent // guarded by mu
	// results maps request ID -> the exact response body served for it
	// (guarded by mu): one opaque blob per batch, nearly invisible to the
	// GC, and retransmit replies byte-identical by construction.
	results map[string][]byte
	// order lists result IDs oldest-completed first (guarded by mu): the
	// eviction queue that keeps results, and every compaction's rewrite,
	// O(retransmit window). Compaction emits in this order.
	order      []string
	maxResults int
	// syncing holds the IDs whose entry is installed but whose append has
	// not returned (guarded by mu); settled is broadcast when one returns.
	// Every writer waits for its ID's mark to clear before it installs
	// (awaitSettledLocked), so the log orders an ID's records as they were
	// installed, and nothing is served from a result still on its way.
	syncing map[string]struct{}
	settled sync.Cond
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
	// evicted counts results the MaxResults bound dropped, the replay at
	// open included: each is an ID a retransmit would find unanswered.
	evicted atomic.Uint64
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
	// fresh segments, the older segments retired) whenever the bytes
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
	// Pending is how many accepted batches have no journaled result —
	// the batches a restarted daemon must replay through the engine
	// (RecoverLedger does exactly that).
	Pending int
	// Results is how many completed batches were recovered.
	Results int
	// TornTail is the number of bytes of unacknowledged torn tail the
	// journal discarded (nonzero after a kill -9 mid-write, or behind the
	// last record of a recycled segment: journal.Recovered.TornTail).
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
		syncing:      make(map[string]struct{}),
		compactBytes: opts.CompactBytes,
		maxResults:   opts.MaxResults,
	}
	l.settled.L = &l.mu
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
	return l, &LedgerRecovery{Pending: len(l.pending), Results: len(l.results), TornTail: rec.TornTail}, nil
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
// in-memory state, last write wins: replay follows the log, which orders
// an ID's records as they were installed (syncing). A second result for
// an ID is the reclassification of a batch evicted and accepted again,
// and is the one the dead process held; an accept after its ID's result
// can only follow that result's eviction, so it reopens the batch as
// pending. An import never installs what the ledger holds (holdsLocked).
// Callers hold l.mu (or, during OpenLedger, have exclusive access).
func (l *Ledger) installLocked(e entry) {
	if e.kind == recResult {
		l.storeResultLocked(e.id, e.body)
		delete(l.pending, e.id)
		return
	}
	if _, done := l.results[e.id]; done {
		l.forgetLocked(entry{kind: recResult, id: e.id})
	}
	l.pending[e.id] = e.events
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
// the oldest-completed batches beyond maxResults — in recovery replay
// too, so a restart cannot resurrect an unbounded history. Callers hold
// l.mu (or, during OpenLedger, have exclusive access).
func (l *Ledger) storeResultLocked(id string, body []byte) {
	if _, ok := l.results[id]; !ok {
		l.order = append(l.order, id)
	}
	l.results[id] = body
	if l.maxResults <= 0 {
		return
	}
	for len(l.order) > l.maxResults {
		l.evicted.Add(1)
		delete(l.results, l.order[0])
		l.order[0] = "" // release the string so the sliced-off slot doesn't pin it
		l.order = l.order[1:]
	}
}

// AcceptWire journals a batch the node answers later (202) under its
// request ID, durably, and marks it pending. body is the events'
// canonical line-JSON, '\n'-terminated, rendered straight into the
// journal's frame buffer as `id\n` + body. A failure rolls back only
// what this call installed (an earlier durable accept's mark stays). It
// installs before it appends, as every writer does (Compact).
func (l *Ledger) AcceptWire(id string, events []dataset.DownloadEvent, body string) error {
	if id == "" {
		return fmt.Errorf("serve: ledger: empty request id")
	}
	l.mu.Lock()
	l.awaitSettledLocked(id)
	if _, done := l.results[id]; done {
		l.mu.Unlock()
		return nil // already served; caller will hit Lookup
	}
	prev, wasPending := l.pending[id]
	l.pending[id] = events
	l.syncing[id] = struct{}{}
	l.mu.Unlock()
	err := l.j.AppendFunc(id, recAccept, func(dst []byte) []byte { return appendPayload(dst, id, body) })
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.settleLocked(id); err == nil {
		return nil
	}
	if wasPending {
		l.pending[id] = prev
	} else {
		delete(l.pending, id)
	}
	return fmt.Errorf("serve: ledger accept %s: %w", id, err)
}

// Result journals the verdicts served for id, resolves the pending mark
// and returns the body to serve for id; on error there is none. The
// first result for an ID wins: a concurrent duplicate (a retransmit
// raced through classification) gets the winner's bytes once they are
// durable, keeping the accounting exactly-once. With no accept pending
// the record is the batch's only one, so it is appended durably and a
// failed append takes the result out again; a deferred batch's result
// is appended asynchronously, as recovery re-derives it from the
// accept. A compaction this call triggers is housekeeping, not part of
// the request: its failure is logged and counted, never returned.
func (l *Ledger) Result(id string, verdicts []VerdictRecord) ([]byte, error) {
	body, _, err := l.result(id, verdicts)
	return body, err
}

// result is Result, also reporting whether these verdicts won, so that
// the handler can answer from them instead of parsing the body back.
func (l *Ledger) result(id string, verdicts []VerdictRecord) (body []byte, won bool, err error) {
	// verdictResponse's encoder: a dedup replay is byte-identical to a
	// stateless reply.
	body = appendVerdictBody(make([]byte, 0, verdictBodySize(verdicts)), verdicts)
	l.mu.Lock()
	l.awaitSettledLocked(id)
	if prev, done := l.results[id]; done {
		l.mu.Unlock()
		return prev, false, nil
	}
	_, deferred := l.pending[id]
	l.storeResultLocked(id, body)
	delete(l.pending, id)
	l.syncing[id] = struct{}{}
	rewritten := l.rewritten
	l.mu.Unlock()
	build := func(dst []byte) []byte { return appendPayload(dst, id, body) }
	if deferred {
		err = l.j.AppendAsyncFunc(id, recResult, build)
	} else {
		err = l.j.AppendFunc(id, recResult, build)
	}
	l.mu.Lock()
	if l.settleLocked(id); err != nil && !deferred {
		l.forgetLocked(entry{kind: recResult, id: id})
	}
	l.mu.Unlock()
	if err != nil {
		return nil, false, fmt.Errorf("serve: ledger result %s: %w", id, err)
	}
	// Compaction trigger, the log/state-ratio rule: the bytes journaled
	// since the last compaction must outgrow CompactBytes and a multiple
	// of that compaction's rewrite, which bounds the amortized rewrite
	// per journaled byte by a constant and, the reference being fixed
	// between compactions, always fires eventually (DESIGN.md §9).
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
	return body, true, nil
}

// awaitSettledLocked returns once no append for id is in flight,
// releasing l.mu while it waits. Entries are installed before their
// append (Compact), so whatever serves or skips on a held result waits
// here for the sync that covers it, and finds it gone if that append
// failed. Callers hold l.mu.
func (l *Ledger) awaitSettledLocked(id string) {
	for _, inFlight := l.syncing[id]; inFlight; _, inFlight = l.syncing[id] {
		l.settled.Wait()
	}
}

// settleLocked clears the mark a writer set on id for its append and
// wakes whoever waits on it. Callers hold l.mu.
func (l *Ledger) settleLocked(id string) {
	delete(l.syncing, id)
	l.settled.Broadcast()
}

// compactRewriteFactor is the log/state ratio that arms compaction. 5
// keeps the amortized rewrite at ~20% of the journaling work and caps
// the recovery replay at 6x the state it loads anyway.
const compactRewriteFactor = 5

// Lookup returns the response body journaled for id, if the batch
// completed and its record is durable.
func (l *Ledger) Lookup(id string) ([]byte, bool) {
	l.mu.Lock()
	l.awaitSettledLocked(id)
	defer l.mu.Unlock()
	v, ok := l.results[id]
	return v, ok
}

// LookupVerdicts parses the journaled response body for id back into
// verdict records — the introspection/testing counterpart of Lookup.
func (l *Ledger) LookupVerdicts(id string) ([]VerdictRecord, bool) {
	body, ok := l.Lookup(id)
	verdicts, err := parseVerdictBody(body)
	return verdicts, ok && err == nil
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
// (journal.Compact). The state is captured with every shard's write lock
// held and the older segments sealed. Every writer installs an entry in
// memory before it appends its record, so a sealed record is in the
// capture or about an evicted ID, and a record appended after it wins
// the replay. (Lock order is journal → ledger; no writer appends while
// holding l.mu, so this cannot deadlock.)
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

// emitMetrics adds the commit path's series to a node's scrape:
// aggregate journal counters, per-shard fsyncs and commit lag, and the
// group-commit batch-size histogram.
func (l *Ledger) emitMetrics(s *obs.Scrape) {
	js := l.j.Stats()
	s.Uint("longtail_journal_appends_total", "", js.Appends)
	s.Uint("longtail_journal_syncs_total", "", js.Syncs)
	s.Uint("longtail_journal_rotations_total", "", js.Rotations)
	s.Uint("longtail_journal_recycled_total", "", js.Recycled)
	s.Uint("longtail_journal_compactions_total", "", js.Compactions)
	s.Uint("longtail_journal_compact_errors_total", "", l.compactErrors.Load())
	s.Uint("longtail_ledger_evicted_total", "", l.evicted.Load())
	s.Uint("longtail_journal_bytes_total", "", js.Bytes)
	// Uneven syncs mean a skewed key distribution; sustained lag on one
	// shard means its device is the straggler.
	for i, st := range l.j.ShardStats() {
		s.Uint("longtail_journal_shard_syncs_total", obs.Label("shard", strconv.Itoa(i)), st.Syncs)
	}
	for i, lag := range l.j.ShardLag() {
		s.Uint("longtail_journal_shard_lag", obs.Label("shard", strconv.Itoa(i)), lag)
	}
	// How many appended records each fsync retired: mass pinned in the
	// "1" bucket means appenders are paying per-record fsyncs.
	b := l.j.SyncBatches()
	s.Buckets("longtail_journal_sync_batch", "", journal.SyncBatchBounds, b.Buckets[:], b.Sum, b.Count)
}

// Close syncs and closes the journal. Idempotent.
func (l *Ledger) Close() error { return l.j.Close() }

// RecoverLedger replays every pending (accepted-but-unresulted) batch
// from a crash through the engine and journals the regenerated results:
// the boot-time half of the exactly-once contract. Classification is
// deterministic, so the replayed verdicts are byte-identical to the
// ones the dead process would have served. Returns the number of
// batches replayed.
func RecoverLedger(engine *Engine, l *Ledger) (int, error) {
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
