package serve

import (
	"runtime/metrics"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/obs"
)

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
	QueueWait obs.Histogram
	Extract   obs.Histogram
	Classify  obs.Histogram
	Decode    obs.Histogram
	Encode    obs.Histogram
	Commit    obs.Histogram

	verdicts [4]atomic.Uint64
}

// register declares the node's series on s.reg, in exposition order.
func (s *Server) register() {
	e, m := s.engine, s.engine.Metrics()
	s.reg.Family(func(sc *obs.Scrape) {
		sc.Uint("longtail_requests_total", `result="accepted"`, m.RequestsAccepted.Load())
		sc.Uint("longtail_requests_total", `result="rejected"`, m.RequestsRejected.Load())
		sc.Uint("longtail_requests_total", `result="deferred"`, m.RequestsDeferred.Load())
		sc.Uint("longtail_requests_total", `result="bad"`, m.BadRequests.Load())
		sc.Uint("longtail_requests_total", `result="dedup"`, m.DedupHits.Load())
		sc.Uint("longtail_events_total", "", m.EventsIn.Load())
		sc.Uint("longtail_memo_hits_total", "", m.MemoHits.Load())
		for v := classify.VerdictNone; v <= classify.VerdictRejected; v++ {
			sc.Uint("longtail_verdicts_total", obs.Label("verdict", v.String()), m.verdicts[v].Load())
		}
		sc.Uint("longtail_extract_errors_total", "", m.ExtractErrors.Load())
		sc.Uint("longtail_shed_expired_total", "", m.ShedExpired.Load())
		sc.Uint("longtail_reloads_total", "", m.Reloads.Load())
		sc.Uint("longtail_reload_failures_total", "", m.ReloadFailures.Load())
		sc.Uint("longtail_reload_generation", "", m.Generation.Load())
		sc.Uint("longtail_degraded", "", obs.Bool(e.DegradedReason() != ""))
		sc.Uint("longtail_queue_depth", "", uint64(e.QueueDepth()))
		if s.ledger != nil {
			s.ledger.emitMetrics(sc)
		}
		stages := [...]*obs.Histogram{&m.QueueWait, &m.Extract, &m.Classify, &m.Decode, &m.Encode, &m.Commit}
		for i, stage := range [...]string{"queue", "extract", "classify", "decode", "encode", "commit"} {
			sc.Histogram("longtail_stage_latency_seconds", obs.Label("stage", stage), stages[i])
		}
		// After boot a node's live heap is the compiled feature context
		// plus requests in flight; a heap that holds the corpus again
		// shows here first (cmd/longtaild's test fences the object count).
		rt := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/objects:objects"},
			{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
		metrics.Read(rt)
		sc.Uint("longtail_heap_live_bytes", "", rt[0].Value.Uint64())
		sc.Uint("longtail_heap_objects", "", rt[1].Value.Uint64())
		sc.Uint("longtail_gc_cycles_total", "", rt[2].Value.Uint64())
		sc.Float("longtail_gc_cpu_seconds_total", "", rt[3].Value.Float64())
	})
	RegisterFront(&s.reg, &s.front)
}
