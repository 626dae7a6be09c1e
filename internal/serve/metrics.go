package serve

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/journal"
)

// latencyBounds are the histogram bucket upper bounds in seconds,
// roughly exponential from 10µs to 1s. Classification of one event is
// microseconds of work, so the low buckets carry the signal; the high
// ones catch queueing under overload.
var latencyBounds = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
}

// numBuckets is len(latencyBounds) plus the implicit +Inf bucket.
const numBuckets = 16

func init() {
	if numBuckets != len(latencyBounds)+1 {
		panic("serve: numBuckets must equal len(latencyBounds)+1")
	}
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation; the final implicit bucket is +Inf.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sumNS  atomic.Uint64
	n      atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(latencyBounds) && s > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Write emits the histogram in cumulative-bucket exposition form under
// name, every series carrying label, one rendered pair (`stage="decode"`).
func (h *Histogram) Write(w io.Writer, name, label string) {
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(latencyBounds) {
			le = strconv.FormatFloat(latencyBounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, label, le, cum)
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, label,
		float64(h.sumNS.Load())/float64(time.Second))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, h.n.Load())
}

// Metrics is the serving subsystem's observable state: verdict
// counters, per-stage latency histograms, queue/backpressure counters
// and the rule-set reload generation. All fields are safe for
// concurrent use; the zero value is ready.
type Metrics struct {
	// RequestsAccepted / RequestsRejected count /classify batches
	// admitted into the queue vs shed with 429 on overflow.
	RequestsAccepted atomic.Uint64
	RequestsRejected atomic.Uint64
	// RequestsDeferred counts batches that took the journal-and-defer
	// rung of the admission ladder: journaled durably, classified in the
	// background, results fetched via GET /result.
	RequestsDeferred atomic.Uint64
	// DedupHits counts batches answered straight from the verdict ledger
	// because their request ID was already journaled with a result — a
	// retransmit after a lost response, served without reclassification.
	DedupHits atomic.Uint64
	// ShedExpired counts events shed because their request's deadline
	// expired before a worker reached them.
	ShedExpired atomic.Uint64
	// ReloadFailures counts rule-set updates refused by validation; the
	// engine keeps serving the previous generation (degraded mode).
	ReloadFailures atomic.Uint64
	// BadRequests counts malformed /classify or /admin/reload bodies and
	// unreadable deadline headers.
	BadRequests atomic.Uint64
	// EventsIn counts individual events admitted for classification.
	EventsIn atomic.Uint64
	// MemoHits counts events answered from a worker's per-shard verdict
	// memo — repeat (file, process, domain) triples under an unchanged
	// rule generation that skipped extraction and matching entirely.
	MemoHits atomic.Uint64
	// ExtractErrors counts events whose feature extraction failed
	// (e.g. no metadata for the file); these return an error verdict
	// rather than failing the batch.
	ExtractErrors atomic.Uint64
	// Reloads counts successful hot rule-set swaps; Generation is the
	// current rule-set generation (1 = the set loaded at boot).
	Reloads    atomic.Uint64
	Generation atomic.Uint64

	// Per-stage latency: time spent queued, extracting features, and
	// classifying, per frame a worker serves; and, per request the
	// handler decodes and answers, reading and parsing the body (Decode)
	// and rendering the reply (Encode) — and, per journaled request
	// answered directly, making its result record durable: the render,
	// the append and the fsync it led or waited for (Commit).
	QueueWait Histogram
	Extract   Histogram
	Classify  Histogram
	Decode    Histogram
	Encode    Histogram
	Commit    Histogram

	verdicts [4]atomic.Uint64
}

// VerdictCount returns the number of verdicts served with value v.
func (m *Metrics) VerdictCount(v classify.Verdict) uint64 {
	if v < 0 || int(v) >= len(m.verdicts) {
		return 0
	}
	return m.verdicts[v].Load()
}

// JournalMetrics is the commit-path snapshot /metrics renders when a
// ledger is attached: aggregate journal counters, per-shard counters
// and commit lag, and the group-commit batch-size
// histogram (records acked per fsync).
type JournalMetrics struct {
	Stats     journal.Stats
	Shards    []journal.Stats
	Lag       []uint64
	SyncBatch journal.BatchStats
	// CompactErrors counts compactions the ledger triggered that failed.
	CompactErrors uint64
	// Evicted counts results the ledger's MaxResults bound dropped.
	Evicted uint64
}

// WriteTo emits the metrics in Prometheus-style text exposition format.
// queueDepth and degraded are sampled at call time (the engine owns
// them); jm carries the journal commit-path snapshot when a ledger is
// attached (nil otherwise).
func (m *Metrics) WriteTo(w io.Writer, queueDepth int, degraded bool, jm *JournalMetrics) {
	fmt.Fprintf(w, "longtail_requests_total{result=\"accepted\"} %d\n", m.RequestsAccepted.Load())
	fmt.Fprintf(w, "longtail_requests_total{result=\"rejected\"} %d\n", m.RequestsRejected.Load())
	fmt.Fprintf(w, "longtail_requests_total{result=\"deferred\"} %d\n", m.RequestsDeferred.Load())
	fmt.Fprintf(w, "longtail_requests_total{result=\"bad\"} %d\n", m.BadRequests.Load())
	fmt.Fprintf(w, "longtail_requests_total{result=\"dedup\"} %d\n", m.DedupHits.Load())
	fmt.Fprintf(w, "longtail_events_total %d\n", m.EventsIn.Load())
	fmt.Fprintf(w, "longtail_memo_hits_total %d\n", m.MemoHits.Load())
	for v := classify.VerdictNone; v <= classify.VerdictRejected; v++ {
		fmt.Fprintf(w, "longtail_verdicts_total{verdict=%q} %d\n", v.String(), m.verdicts[v].Load())
	}
	fmt.Fprintf(w, "longtail_extract_errors_total %d\n", m.ExtractErrors.Load())
	fmt.Fprintf(w, "longtail_shed_expired_total %d\n", m.ShedExpired.Load())
	fmt.Fprintf(w, "longtail_reloads_total %d\n", m.Reloads.Load())
	fmt.Fprintf(w, "longtail_reload_failures_total %d\n", m.ReloadFailures.Load())
	fmt.Fprintf(w, "longtail_reload_generation %d\n", m.Generation.Load())
	fmt.Fprintf(w, "longtail_degraded %d\n", boolGauge(degraded))
	fmt.Fprintf(w, "longtail_queue_depth %d\n", queueDepth)
	if jm != nil {
		js := jm.Stats
		fmt.Fprintf(w, "longtail_journal_appends_total %d\n", js.Appends)
		fmt.Fprintf(w, "longtail_journal_syncs_total %d\n", js.Syncs)
		fmt.Fprintf(w, "longtail_journal_rotations_total %d\n", js.Rotations)
		fmt.Fprintf(w, "longtail_journal_recycled_total %d\n", js.Recycled)
		fmt.Fprintf(w, "longtail_journal_compactions_total %d\n", js.Compactions)
		fmt.Fprintf(w, "longtail_journal_compact_errors_total %d\n", jm.CompactErrors)
		fmt.Fprintf(w, "longtail_ledger_evicted_total %d\n", jm.Evicted)
		fmt.Fprintf(w, "longtail_journal_bytes_total %d\n", js.Bytes)
		// Per-shard fsync counts and commit lag: uneven syncs mean a
		// skewed key distribution; sustained lag on one shard means its
		// device is the straggler.
		for i, st := range jm.Shards {
			fmt.Fprintf(w, "longtail_journal_shard_syncs_total{shard=\"%d\"} %d\n", i, st.Syncs)
		}
		for i, lag := range jm.Lag {
			fmt.Fprintf(w, "longtail_journal_shard_lag{shard=\"%d\"} %d\n", i, lag)
		}
		// Group-commit batch size: how many appended records each fsync
		// retired. Mass pinned in the "1" bucket means appenders are
		// paying per-record fsyncs.
		cum := uint64(0)
		for i, c := range jm.SyncBatch.Buckets {
			cum += c
			le := "+Inf"
			if i < len(journal.SyncBatchBounds) {
				le = strconv.FormatUint(journal.SyncBatchBounds[i], 10)
			}
			fmt.Fprintf(w, "longtail_journal_sync_batch_bucket{le=%q} %d\n", le, cum)
		}
		fmt.Fprintf(w, "longtail_journal_sync_batch_sum %d\n", jm.SyncBatch.Sum)
		fmt.Fprintf(w, "longtail_journal_sync_batch_count %d\n", jm.SyncBatch.Count)
	}
	m.QueueWait.Write(w, "longtail_stage_latency_seconds", `stage="queue"`)
	m.Extract.Write(w, "longtail_stage_latency_seconds", `stage="extract"`)
	m.Classify.Write(w, "longtail_stage_latency_seconds", `stage="classify"`)
	m.Decode.Write(w, "longtail_stage_latency_seconds", `stage="decode"`)
	m.Encode.Write(w, "longtail_stage_latency_seconds", `stage="encode"`)
	m.Commit.Write(w, "longtail_stage_latency_seconds", `stage="commit"`)
	writeRuntime(w)
}

// runtimeGauges are the process's heap and collector numbers, read from
// runtime/metrics at scrape time. After boot a node's live heap is the
// compiled feature context plus requests in flight; a heap that holds
// the corpus again shows here first (cmd/longtaild's test fences the
// object count).
var runtimeGauges = [...]struct{ name, source string }{
	{"longtail_heap_live_bytes", "/gc/heap/live:bytes"},
	{"longtail_heap_objects", "/gc/heap/objects:objects"},
	{"longtail_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
	{"longtail_gc_cpu_seconds_total", "/cpu/classes/gc/total:cpu-seconds"},
}

func writeRuntime(w io.Writer) {
	var samples [len(runtimeGauges)]metrics.Sample
	for i, g := range runtimeGauges {
		samples[i].Name = g.source
	}
	metrics.Read(samples[:])
	for i, g := range runtimeGauges {
		// A runtime that does not know a source reports KindBad for it;
		// the line is then left out.
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", g.name, v.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", g.name, v.Float64())
		}
	}
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
