package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/keyhash"
)

// Errors the admission path returns; the HTTP layer maps them to 429,
// 503 and (when a journal is attached) the journal-and-defer path.
var (
	// ErrOverloaded means the bounded ingest queue is full; callers
	// should back off and retry (the Client does, with jitter).
	ErrOverloaded = errors.New("serve: ingest queue full")
	// ErrDraining means the engine is shutting down and no longer
	// admits work.
	ErrDraining = errors.New("serve: engine draining")
	// ErrDeadlineExceeded means the batch's deadline expired before
	// every event could be classified; expired work was shed (counted in
	// Metrics.ShedExpired) instead of occupying workers.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before classification")
)

// EngineConfig sizes the worker pool. The zero value selects defaults.
type EngineConfig struct {
	// Shards is the number of worker goroutines, each owning one queue
	// shard; events route to shards by file hash, so all in-flight
	// events of one file classify on the same worker. Default 4.
	Shards int
	// QueueSize bounds the total number of admitted-but-unfinished
	// events across all shards; admission beyond it fails with
	// ErrOverloaded (backpressure). Default 1024.
	QueueSize int
}

func (c EngineConfig) shardsOrDefault() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 4
}

func (c EngineConfig) queueOrDefault() int {
	if c.QueueSize > 0 {
		return c.QueueSize
	}
	return 1024
}

// VerdictRecord is the wire form of one served verdict, emitted as one
// line-JSON record per ingested event, in input order. Generation pins
// the verdict to exactly one rule-set generation, so every response is
// attributable even across hot reloads.
type VerdictRecord struct {
	Type       string `json:"type"` // always "verdict"
	File       string `json:"file"`
	Verdict    string `json:"verdict"`
	Generation uint64 `json:"gen"`
	Rules      []int  `json:"rules,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Key renders the generation-independent part of the record — the part
// that must match offline classification byte-for-byte regardless of
// how many hot reloads happened mid-stream. The rendering is pinned to
// fmt.Sprintf("%s %s %v", File, Verdict, Rules) by TestVerdictKey.
func (v VerdictRecord) Key() string {
	b := make([]byte, 0, len(v.File)+len(v.Verdict)+4+4*len(v.Rules))
	b = append(b, v.File...)
	b = append(b, ' ')
	b = append(b, v.Verdict...)
	b = append(b, ' ', '[')
	for i, r := range v.Rules {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	b = append(b, ']')
	return string(b)
}

// ruleGen is one immutable rule-set generation. The engine swaps whole
// generations atomically; workers load the pointer once per sub-batch,
// so an event classifies under exactly one generation.
type ruleGen struct {
	clf *classify.Classifier
	gen uint64
}

// shardBatch is one shard's slice of an admitted batch: the indexes of
// the events routed to this shard, sharing the batch's event and result
// arrays. One frame per (batch, shard) replaces one heap-allocated job
// and one channel send per event; frames recycle through framePool.
type shardBatch struct {
	batch    *Batch
	idx      []int32
	ctx      context.Context
	enqueued time.Time
}

// Batch is an admitted batch between Submit and Wait: its frames are
// with the workers, or already classified.
type Batch struct {
	e       *Engine
	events  []dataset.DownloadEvent
	results []VerdictRecord
	done    sync.WaitGroup // one count per event not yet classified or shed
	shed    atomic.Int64
}

// inlineFrameEvents is the largest frame the admitting goroutine
// classifies itself when the shard is free. Handing a frame to its
// worker costs a channel send and two wake-ups — microseconds, several
// fresh events' worth — and buys parallelism only across frames that
// outlast it (BenchmarkClassifyBatch, DESIGN.md §11). A 64-event request
// over four shards makes 16-event frames and never leaves its
// goroutine; a 1,024-event one makes 256-event frames for the workers.
const inlineFrameEvents = 32

var framePool = sync.Pool{New: func() any { return new(shardBatch) }}

// The verdict memo is keyed by (file, process, domain): the feature
// vector is a pure function of those three fields against the immutable
// store and oracle, so two events agreeing on them get identical
// verdicts under the same rule generation. File alone decides the shard
// (FNV affinity), so every event of one file — and therefore every memo
// reader/writer of one key — runs on one worker.
//
// Most keys are seen once (the paper's long tail), so a key earns its
// memo entry on second sight: the first sight only leaves the key's
// hash in the worker's doorkeeper, the second finds it there and admits
// the verdict, the third is the first hit.

// memoVal caches the classification outcome for a key under one rule
// generation. The key strings are clones: an entry outlives the request
// that produced it and must not pin that request's body. rules is shared
// across hits — verdict attributions are immutable once produced.
type memoVal struct {
	file    dataset.FileHash
	process dataset.FileHash
	domain  string
	verdict classify.Verdict
	rules   []int
}

// memoMaxEntries caps each worker's memo — past it the map resets
// wholesale (repeaters re-admit in one miss each) — and sizes the
// doorkeeper. A power of two: the doorkeeper is indexed by mask.
const memoMaxEntries = 1 << 16

// workerState is the per-shard memo: repeat downloads of a file skip
// extraction and matching entirely. mu is held by whoever classifies a
// frame of the shard — its worker, or the admitting goroutine of a
// small frame — so the state has one user at a time. The map is
// keyed by the key's hash and an entry is verified against the event's
// strings, so two keys colliding on 64 bits cost each other a miss,
// never a wrong verdict. door is the doorkeeper: direct-mapped, one key
// hash per slot (512 KB, pointer-free), so a later key on the same slot
// evicts the earlier one's first sight — again one extra miss. gen pins
// both to one rule-set generation; a hot reload invalidates everything
// on the next sub-batch.
type workerState struct {
	mu   sync.Mutex
	memo map[uint64]memoVal
	door []uint64
	gen  uint64
}

func newWorkerState() *workerState {
	return &workerState{memo: make(map[uint64]memoVal), door: make([]uint64, memoMaxEntries)}
}

// reset forgets every entry and every sighting and pins the state to gen.
func (ws *workerState) reset(gen uint64) {
	clear(ws.memo)
	clear(ws.door)
	ws.gen = gen
}

// hashKey hashes an event's memo key with the repository's unseeded
// string hash, so that the memo's behaviour — and MemoHits — for a given
// event sequence is the same in every process; a weak input costs the
// memo a miss, never a verdict.
func hashKey(ev *dataset.DownloadEvent) uint64 {
	// The lengths go in first so field boundaries count: ("ab","c") and
	// ("a","bc") hash apart.
	h := uint64(len(ev.File)) | uint64(len(ev.Process))<<20 | uint64(len(ev.Domain))<<40
	h = keyhash.String(h^0xa0761d6478bd642f, string(ev.File))
	h = keyhash.String(h, string(ev.Process))
	h = keyhash.String(h, ev.Domain)
	return keyhash.Mix(h, 0xe7037ed1a0b428db)
}

// Engine is the classification core: bounded sharded queues feeding a
// worker pool that extracts features and classifies against the current
// rule-set generation.
type Engine struct {
	ex        *features.Extractor
	metrics   *Metrics
	shards    []chan *shardBatch
	states    []*workerState // one per shard, locked per frame
	capacity  int64
	inflight  atomic.Int64
	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	// drainMu/drainCond signal Close when inflight reaches zero, so the
	// drain is a condition wait instead of a sleep poll.
	drainMu   sync.Mutex
	drainCond *sync.Cond

	swapMu sync.Mutex
	rules  atomic.Pointer[ruleGen]

	// tap, when set, observes every fully classified batch off the
	// response path (one atomic load per batch when unset).
	tap atomic.Pointer[BatchTap]

	// degraded holds the reason the last rule update was refused (nil =
	// healthy); the old generation keeps serving throughout.
	degraded atomic.Pointer[string]
}

// NewEngine builds and starts an engine serving clf (generation 1).
// The extractor provides the file/process metadata and Alexa-rank
// context that Table XV features need.
func NewEngine(ex *features.Extractor, clf *classify.Classifier, cfg EngineConfig, m *Metrics) (*Engine, error) {
	if ex == nil {
		return nil, fmt.Errorf("serve: nil extractor")
	}
	if clf == nil {
		return nil, fmt.Errorf("serve: nil classifier")
	}
	if m == nil {
		m = &Metrics{}
	}
	e := &Engine{
		ex:       ex,
		metrics:  m,
		capacity: int64(cfg.queueOrDefault()),
	}
	e.drainCond = sync.NewCond(&e.drainMu)
	e.rules.Store(&ruleGen{clf: clf, gen: 1})
	m.Generation.Store(1)
	n := cfg.shardsOrDefault()
	e.shards = make([]chan *shardBatch, n)
	e.states = make([]*workerState, n)
	for i := range e.shards {
		// Each shard can hold the whole admitted window, so a reserved
		// frame's enqueue never blocks and drain cannot deadlock.
		e.shards[i] = make(chan *shardBatch, cfg.queueOrDefault())
		e.states[i] = newWorkerState()
		e.wg.Add(1)
		go e.worker(e.shards[i], e.states[i])
	}
	return e, nil
}

// Metrics returns the engine's metrics sink.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Generation returns the current rule-set generation.
func (e *Engine) Generation() uint64 { return e.rules.Load().gen }

// RuleCount returns the number of rules in the current generation.
func (e *Engine) RuleCount() int { return len(e.rules.Load().clf.Rules) }

// QueueDepth returns the number of admitted-but-unfinished events.
func (e *Engine) QueueDepth() int { return int(e.inflight.Load()) }

// Capacity returns the admission window size; QueueDepth/Capacity is
// the load fraction the graduated admission ladder keys on.
func (e *Engine) Capacity() int { return int(e.capacity) }

// MarkDegraded records that the serving rule set could not be updated
// (e.g. a reload failed validation): the engine keeps serving the last
// good generation and /healthz reports degraded instead of flapping.
// A subsequent successful Swap clears it.
func (e *Engine) MarkDegraded(reason string) {
	e.degraded.Store(&reason)
	e.metrics.ReloadFailures.Add(1)
}

// DegradedReason returns the most recent degradation reason, or ""
// when the engine is healthy.
func (e *Engine) DegradedReason() string {
	if r := e.degraded.Load(); r != nil {
		return *r
	}
	return ""
}

// Swap atomically replaces the served rule set and returns the new
// generation. In-flight events finish under the generation they loaded;
// events admitted after Swap returns classify under the new one. The
// bumped generation also invalidates every worker's verdict memo.
func (e *Engine) Swap(clf *classify.Classifier) (uint64, error) {
	if clf == nil {
		return 0, fmt.Errorf("serve: swap: nil classifier")
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	next := &ruleGen{clf: clf, gen: e.rules.Load().gen + 1}
	e.rules.Store(next)
	e.degraded.Store(nil)
	e.metrics.Reloads.Add(1)
	e.metrics.Generation.Store(next.gen)
	return next.gen, nil
}

// BatchTap observes a fully classified batch after its verdicts are
// complete and before ClassifyBatch returns them. The slices belong to
// the caller of ClassifyBatch: a tap must copy anything it keeps and
// must not block — shadow evaluation hangs work off a bounded queue and
// drops on overflow rather than stalling the serving path.
type BatchTap func(events []dataset.DownloadEvent, verdicts []VerdictRecord)

// SetBatchTap installs (or, with nil, removes) the engine's batch tap.
// The tap sees only batches in which every event was classified —
// shed or partially shed batches are not observable ground truth.
func (e *Engine) SetBatchTap(t BatchTap) {
	if t == nil {
		e.tap.Store(nil)
		return
	}
	e.tap.Store(&t)
}

// shardOf routes a file hash to a shard: FNV-1a over the digest's tail.
// Any deterministic map preserves the per-file affinity the verdict
// memo relies on; hashing only the last 16 bytes (64 bits of entropy in
// a hex digest) keeps the dependent-multiply chain off the per-event
// hot path without losing distribution.
func shardOf(h dataset.FileHash, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	s := string(h)
	if len(s) > 16 {
		s = s[len(s)-16:]
	}
	x := uint32(offset32)
	for i := 0; i < len(s); i++ {
		x ^= uint32(s[i])
		x *= prime32
	}
	return int(x % uint32(n))
}

// ClassifyBatch admits a batch of events, classifies each on its shard,
// and returns one VerdictRecord per event in input order: Submit, then
// Wait. The whole batch is admitted or rejected atomically: on
// ErrOverloaded nothing was enqueued and the caller should shed, defer
// or retry.
//
// ctx's deadline propagates into the shard queues: a batch whose
// deadline is already past is shed at admission, and events still
// queued when it expires are shed by the workers (ErrDeadlineExceeded,
// partial results) rather than classified into the void.
func (e *Engine) ClassifyBatch(ctx context.Context, events []dataset.DownloadEvent) ([]VerdictRecord, error) {
	b, err := e.Submit(ctx, events)
	if err != nil {
		return nil, err
	}
	return b.Wait()
}

// Submit is the admission half of ClassifyBatch. When it returns, every
// frame of at most inlineFrameEvents events whose shard was free has
// been classified on the calling goroutine and every other frame is
// with its shard's worker: what the caller does before Wait overlaps
// with the workers. An empty batch is a nil Batch, whose Wait returns
// nothing.
func (e *Engine) Submit(ctx context.Context, events []dataset.DownloadEvent) (*Batch, error) {
	if len(events) == 0 {
		return nil, nil
	}
	n := int64(len(events))
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		// Dead on arrival: shed the whole batch without touching queues.
		e.metrics.ShedExpired.Add(uint64(n))
		return nil, ErrDeadlineExceeded
	}
	// Reserve capacity before touching the queues so overflow is an
	// all-or-nothing admission decision.
	for {
		cur := e.inflight.Load()
		if cur+n > e.capacity {
			return nil, ErrOverloaded
		}
		if e.inflight.CompareAndSwap(cur, cur+n) {
			break
		}
	}
	if e.closed.Load() {
		e.decInflight(n)
		return nil, ErrDraining
	}
	e.metrics.EventsIn.Add(uint64(n))
	b := &Batch{e: e, events: events, results: make([]VerdictRecord, len(events))}
	b.done.Add(len(events))
	now := time.Now()
	ns := len(e.shards)
	// Group the batch by shard: one pooled frame per shard touched,
	// instead of one allocation and send per event.
	frames := make([]*shardBatch, ns)
	for i := range events {
		s := shardOf(events[i].File, ns)
		f := frames[s]
		if f == nil {
			f = framePool.Get().(*shardBatch)
			f.batch, f.ctx, f.enqueued = b, ctx, now
			frames[s] = f
		}
		f.idx = append(f.idx, int32(i))
	}
	// Long frames first: their workers run while this goroutine
	// classifies the short ones.
	for s, f := range frames {
		if f != nil && len(f.idx) > inlineFrameEvents {
			e.shards[s] <- f
			frames[s] = nil
		}
	}
	for s, f := range frames {
		if f == nil {
			continue
		}
		if ws := e.states[s]; ws.mu.TryLock() {
			e.processFrame(f, ws)
			ws.mu.Unlock()
		} else {
			e.shards[s] <- f // the shard is busy: queue behind it, as ever
		}
	}
	return b, nil
}

// Wait blocks until every event of the batch is classified or shed and
// returns the verdicts in input order.
func (b *Batch) Wait() ([]VerdictRecord, error) {
	if b == nil {
		return nil, nil
	}
	b.done.Wait()
	if b.shed.Load() > 0 {
		return b.results, ErrDeadlineExceeded
	}
	if t := b.e.tap.Load(); t != nil {
		(*t)(b.events, b.results)
	}
	return b.results, nil
}

// worker drains one shard until Close, taking the shard's lock per
// frame: between frames an admitting goroutine may classify a short one
// under it (Submit).
func (e *Engine) worker(ch chan *shardBatch, ws *workerState) {
	defer e.wg.Done()
	for f := range ch {
		ws.mu.Lock()
		e.processFrame(f, ws)
		ws.mu.Unlock()
	}
}

// frameTally accumulates one frame's metric deltas so the shared
// counters are touched once per sub-batch instead of once per event.
type frameTally struct {
	shed          int
	extractErrors int
	memoHits      int
	verdicts      [4]int
}

// processFrame classifies one shard's slice of a batch under exactly
// one rule-set generation; callers hold ws.mu. Expired work is shed: if
// the admitting request's deadline passed while the frame sat in the
// queue, no extraction or classification effort is spent on it. Stage
// latency is sampled — the first memo-missing event of each frame is
// timed individually — so the histograms keep per-event semantics
// without three clock reads per event.
func (e *Engine) processFrame(f *shardBatch, ws *workerState) {
	events, results := f.batch.events, f.batch.results
	var tally frameTally
	var extractDur, classifyDur time.Duration
	timed := false
	queueWait := time.Since(f.enqueued)

	if f.ctx != nil && f.ctx.Err() != nil {
		errStr := "shed: " + f.ctx.Err().Error()
		for _, i := range f.idx {
			results[i] = VerdictRecord{
				Type: "verdict", File: string(events[i].File), Error: errStr,
			}
		}
		tally.shed = len(f.idx)
	} else {
		rg := e.rules.Load()
		if ws.gen != rg.gen {
			// Hot reload: a new generation invalidates every memo entry,
			// and sightings start over with it.
			ws.reset(rg.gen)
		}
		for _, i := range f.idx {
			ev := &events[i]
			rec := &results[i]
			rec.Type = "verdict"
			rec.File = string(ev.File)
			rec.Generation = rg.gen
			h := hashKey(ev)
			slot := &ws.door[h&(memoMaxEntries-1)]
			seen := *slot == h
			*slot = h
			if seen {
				if mv, ok := ws.memo[h]; ok && mv.file == ev.File && mv.process == ev.Process && mv.domain == ev.Domain {
					tally.memoHits++
					tally.verdicts[mv.verdict]++
					rec.Verdict = mv.verdict.String()
					rec.Rules = mv.rules
					continue
				}
			}
			var (
				vec features.Vector
				err error
				v   classify.Verdict
				mr  []int
			)
			if !timed {
				timed = true
				t0 := time.Now()
				vec, err = e.ex.Vector(ev)
				t1 := time.Now()
				extractDur = t1.Sub(t0)
				if err == nil {
					inst := features.Instance{Vector: vec, File: ev.File}
					v, mr = rg.clf.ClassifyOne(&inst)
					classifyDur = time.Since(t1)
				}
			} else {
				vec, err = e.ex.Vector(ev)
				if err == nil {
					inst := features.Instance{Vector: vec, File: ev.File}
					v, mr = rg.clf.ClassifyOne(&inst)
				}
			}
			if err != nil {
				tally.extractErrors++
				rec.Verdict = classify.VerdictNone.String()
				rec.Error = err.Error()
				continue
			}
			tally.verdicts[v]++
			rec.Verdict = v.String()
			rec.Rules = mr
			if !seen {
				continue // first sight: the doorkeeper remembers, the memo does not
			}
			if len(ws.memo) >= memoMaxEntries {
				clear(ws.memo)
			}
			ws.memo[h] = memoVal{
				file:    dataset.FileHash(strings.Clone(string(ev.File))),
				process: dataset.FileHash(strings.Clone(string(ev.Process))),
				domain:  strings.Clone(ev.Domain),
				verdict: v, rules: mr,
			}
		}
	}

	// Fold the frame's tallies into the shared metrics before signaling
	// completion, so counters read after ClassifyBatch returns are
	// exact.
	m := e.metrics
	m.QueueWait.Observe(queueWait)
	if timed {
		m.Extract.Observe(extractDur)
		if classifyDur > 0 || tally.extractErrors == 0 {
			m.Classify.Observe(classifyDur)
		}
	}
	if tally.extractErrors > 0 {
		m.ExtractErrors.Add(uint64(tally.extractErrors))
	}
	if tally.memoHits > 0 {
		m.MemoHits.Add(uint64(tally.memoHits))
	}
	for v, c := range tally.verdicts {
		if c > 0 {
			m.verdicts[v].Add(uint64(c))
		}
	}
	n := len(f.idx)
	b := f.batch
	if tally.shed > 0 {
		m.ShedExpired.Add(uint64(tally.shed))
		b.shed.Add(int64(tally.shed))
	}
	// Scrub and recycle the frame before signaling: after done.Add the
	// batch (and its arrays) may be long gone. The admission slots go
	// first, so that QueueDepth is exact once Wait has returned, as the
	// tallies are.
	f.batch, f.ctx = nil, nil
	f.idx = f.idx[:0]
	framePool.Put(f)
	e.decInflight(int64(n))
	b.done.Add(-n)
}

// decInflight releases n admission slots and wakes a draining Close
// when the last one goes.
func (e *Engine) decInflight(n int64) {
	if e.inflight.Add(-n) == 0 && e.closed.Load() {
		e.drainMu.Lock()
		e.drainCond.Broadcast()
		e.drainMu.Unlock()
	}
}

// Close drains the engine: admission stops immediately, every admitted
// event still gets its verdict, and Close returns once the workers have
// exited. The drain waits on a condition variable signaled by the last
// in-flight decrement — no sleep polling. Idempotent; concurrent and
// repeat callers block until the first drain completes.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.closeOnce.Do(func() {
		// Wait for in-flight work (admitted batches hold inflight > 0
		// until their last event is processed, and admission re-checks
		// closed after reserving, so no new sends can start once this
		// hits zero).
		e.drainMu.Lock()
		for e.inflight.Load() > 0 {
			e.drainCond.Wait()
		}
		e.drainMu.Unlock()
		for _, ch := range e.shards {
			close(ch)
		}
		e.wg.Wait()
	})
}
