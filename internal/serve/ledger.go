package serve

import (
	"bytes"
	"context"
	"encoding/json"
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
	// dedup state (and every compaction snapshot) stays O(retransmit
	// window), not O(total request history).
	order      []string
	maxResults int
	// stateBytes approximates the snapshot size: the summed length of
	// retained response bodies (guarded by mu). lastSnapshotBytes is the
	// size of the most recent compaction snapshot; the compaction
	// trigger scales with it — see Result.
	stateBytes        int64
	lastSnapshotBytes int64

	// compactBytes triggers snapshot+compaction once that many bytes
	// have been journaled since the last compaction (-1 = never).
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
	// with its own group-commit sync loop, so accept fsyncs overlap
	// across cores (journal.OpenSharded). Request IDs pick the shard by
	// FNV affinity; recovery merges all shards by global sequence.
	// Values <= 1 mean one shard of the same layout; the shard
	// directories already on disk can only raise the count.
	Shards int
	// CompactBytes compacts the journal (snapshot of the full ledger
	// state, then segment truncation) whenever the bytes journaled since
	// the last compaction — cumulative across segment rotations, not the
	// size of any one segment — exceed this threshold. Default 32 MiB;
	// negative disables.
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

// ledgerSnapshot is the compaction snapshot: the full dedup state,
// serialized with sorted keys so identical ledgers snapshot to
// identical bytes. Results carry each batch's response body verbatim.
type ledgerSnapshot struct {
	Results map[string]string   `json:"results"`
	Pending map[string][]string `json:"pending"`
}

// OpenLedger opens (or creates) the journal in opts.Journal.Dir and
// reconstructs the ledger state a previous process left behind.
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
	if rec.Snapshot != nil {
		l.lastSnapshotBytes = int64(len(rec.Snapshot))
		var snap ledgerSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			j.Close()
			return nil, nil, fmt.Errorf("serve: ledger snapshot: %w", err)
		}
		// A snapshot loses completion order, so restore in sorted-ID
		// order: deterministic across restarts, which is what matters
		// for a bound that only approximates "oldest first".
		for _, id := range sortedIDs(snap.Results, nil) {
			l.storeResultLocked(id, []byte(snap.Results[id]))
		}
		for id, lines := range snap.Pending {
			events, err := parseEventLines([]byte(strings.Join(lines, "\n")))
			if err != nil {
				j.Close()
				return nil, nil, fmt.Errorf("serve: ledger snapshot %s: %w", id, err)
			}
			l.pending[id] = events
		}
	}
	for _, r := range rec.Records {
		id, body, events, err := decodeRecord(r)
		if err != nil {
			j.Close()
			return nil, nil, fmt.Errorf("serve: ledger replay: %w", err)
		}
		if r.Kind == recResult {
			l.storeResultLocked(id, body)
			delete(l.pending, id)
		} else if _, done := l.results[id]; !done { // else: duplicate accept of an already-resulted batch
			l.pending[id] = events
		}
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

// decodeRecord splits a journal (or handoff) record into its request ID
// and what it carries: a result's payload is `id\n` + the response body
// verbatim — no parsing needed, the blob is served as-is on dedup — and
// an accept's is `id\n` + the batch's event lines.
func decodeRecord(r journal.Record) (id string, body []byte, events []dataset.DownloadEvent, err error) {
	idx := bytes.IndexByte(r.Data, '\n')
	if idx <= 0 {
		return "", nil, nil, fmt.Errorf("record without id line")
	}
	id, rest := string(r.Data[:idx]), r.Data[idx+1:]
	switch r.Kind {
	case recResult:
		return id, rest, nil, nil
	case recAccept:
		events, err = parseEventLines(rest)
		return id, nil, events, err
	}
	return "", nil, nil, fmt.Errorf("unknown record kind %d", r.Kind)
}

// parseEventLines parses '\n'-separated line-JSON event records,
// skipping empty lines.
func parseEventLines(data []byte) ([]dataset.DownloadEvent, error) {
	events := make([]dataset.DownloadEvent, 0, bytes.Count(data, []byte{'\n'})+1)
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		ev, err := export.UnmarshalEventLine(line)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
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
// Evicted IDs keep their journal records until the next compaction's
// snapshot drops them, but recovery replays through this same bound, so
// a restart cannot resurrect an unbounded history either.
func (l *Ledger) storeResultLocked(id string, body []byte) {
	if prev, ok := l.results[id]; !ok {
		l.order = append(l.order, id)
	} else {
		l.stateBytes -= int64(len(prev))
	}
	l.results[id] = body
	l.stateBytes += int64(len(body))
	if l.maxResults <= 0 {
		return
	}
	for len(l.order) > l.maxResults {
		l.stateBytes -= int64(len(l.results[l.order[0]]))
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
// retransmit can try again cleanly.
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
	err := l.j.AppendFunc(id, recAccept, func(dst []byte) []byte {
		dst = append(dst, id...)
		dst = append(dst, '\n')
		return append(dst, body...)
	})
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
	lastSnap := l.lastSnapshotBytes
	l.mu.Unlock()
	err := l.j.AppendAsyncFunc(id, recResult, func(dst []byte) []byte {
		dst = append(dst, id...)
		dst = append(dst, '\n')
		return append(dst, body...)
	})
	if err != nil {
		return body, fmt.Errorf("serve: ledger result %s: %w", id, err)
	}
	// Compaction trigger: the log/state-ratio rule. A compaction's cost
	// is one full snapshot — O(stateBytes) of encode, write and fsync —
	// so firing it every fixed CompactBytes makes the amortized cost per
	// request grow linearly with the retained dedup window. Requiring
	// the log to also outgrow a multiple of the LAST snapshot's size
	// bounds the amortized snapshot cost per journaled byte by a
	// constant, at the price of a bounded extra replay debt. Comparing
	// against the previous snapshot (not the live state) keeps the
	// trigger live: the log grows without bound between compactions
	// while the reference size stays fixed, so compaction always
	// eventually fires even when state grows as fast as the log.
	if threshold := l.compactBytes; threshold > 0 {
		if p := compactSnapshotFactor * lastSnap; p > threshold {
			threshold = p
		}
		if l.j.LiveBytes() > threshold {
			if err := l.Compact(); err != nil {
				l.compactErrors.Add(1)
				log.Printf("serve: ledger: compaction failed, journal left uncompacted: %v", err)
			}
		}
	}
	return body, nil
}

// compactSnapshotFactor is the log/snapshot ratio that arms compaction:
// the journal must exceed both CompactBytes and this multiple of the
// previous snapshot's size. 4 keeps the amortized snapshot cost under
// ~25% of the bytes-proportional journaling work while capping the
// recovery replay at 4x the snapshot it would load anyway.
const compactSnapshotFactor = 4

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

// Compact snapshots the full ledger state into the journal and drops
// the segments the snapshot covers. The capture runs via
// journal.CompactStaged: under the journal's write lock (with l.mu
// also held) it takes a shallow clone of the state maps — response
// bodies and pending event slices are immutable once stored, so
// cloning the map headers pins a consistent snapshot — and the
// O(stateBytes) encode then runs with serving traffic flowing. No
// Accept can slip a record into a to-be-deleted segment after the
// clone is taken, so every durable batch is either in the snapshot or
// in a segment that survives — the exactly-once contract holds across
// compaction. (Lock order is journal → ledger; Accept and Result never
// append while holding l.mu, so this cannot deadlock.)
func (l *Ledger) Compact() error {
	// Stays -1 when CompactStaged found a compaction in flight and
	// returned without calling back.
	snapBytes := int64(-1)
	err := l.j.CompactStaged(func() (func() ([]byte, error), error) {
		l.mu.Lock()
		results := make(map[string][]byte, len(l.results))
		for id, body := range l.results {
			results[id] = body
		}
		pending := make(map[string][]dataset.DownloadEvent, len(l.pending))
		for id, events := range l.pending {
			pending[id] = events
		}
		l.mu.Unlock()
		return func() ([]byte, error) {
			snap, err := appendSnapshot(results, pending)
			snapBytes = int64(len(snap))
			return snap, err
		}, nil
	})
	if err != nil || snapBytes < 0 {
		return err
	}
	// Only a snapshot that reached the disk moves the next trigger:
	// Result scales its threshold by this size.
	l.mu.Lock()
	l.lastSnapshotBytes = snapBytes
	l.mu.Unlock()
	return nil
}

// appendSnapshot serializes the ledger state by hand into the
// ledgerSnapshot JSON shape OpenLedger decodes with encoding/json.
// Compaction cost scales with the retained dedup window (every response
// body is re-serialized into the snapshot), so this path matters: the
// reflective json.Marshal of the intermediate string maps made each
// compaction a multi-hundred-millisecond stall on a loaded ledger,
// most of it copying bodies into throwaway strings. Keys are emitted
// sorted, so identical ledgers still snapshot to identical bytes.
func appendSnapshot(results map[string][]byte, pending map[string][]dataset.DownloadEvent) ([]byte, error) {
	size := 64
	for id, v := range results {
		// Verdict-line bodies escape to roughly +10% (a quote or two
		// per ten bytes); undershooting here costs a full re-copy of a
		// many-megabyte buffer on the final growth.
		size += len(id) + len(v) + len(v)/8 + 8
	}
	for id, events := range pending {
		size += len(id) + len(events)*160 + 8
	}
	dst := make([]byte, 0, size)
	dst = append(dst, `{"results":{`...)
	for i, id := range sortedIDs(results, nil) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = export.AppendJSONString(dst, id)
		dst = append(dst, ':')
		dst = export.AppendJSONBytes(dst, results[id])
	}
	dst = append(dst, `},"pending":{`...)
	for i, id := range sortedIDs(pending, nil) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = export.AppendJSONString(dst, id)
		dst = append(dst, `:[`...)
		for j := range pending[id] {
			line, err := export.MarshalEventLine(&pending[id][j])
			if err != nil {
				return nil, fmt.Errorf("serve: ledger compact: %w", err)
			}
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = export.AppendJSONBytes(dst, line)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `}}`...)
	return dst, nil
}

// Stats exposes the underlying journal counters, aggregated across
// shards.
func (l *Ledger) Stats() journal.Stats { return l.j.Stats() }

// JournalMetrics snapshots everything /metrics exposes about the commit
// path: aggregate counters, per-shard counters and ack-queue lag, and
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
		verdicts, err := engine.ClassifyBatch(context.Background(), events)
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
