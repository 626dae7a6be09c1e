package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/journal"
	"repro/internal/retry"
)

// RequestIDHeader carries the client's stable per-batch request ID;
// with a ledger attached it is the dedup key that makes retransmitted
// batches exactly-once. TimeoutHeader carries an optional per-request
// deadline in milliseconds, propagated into the shard queues.
const (
	RequestIDHeader = "X-Request-Id"
	TimeoutHeader   = "X-Timeout-Ms"
)

// Server is the HTTP surface of the verdict-serving subsystem.
//
//	POST /classify      line-JSON "event" records in, line-JSON
//	                    "verdict" records out (input order). Admission
//	                    is a graduated ladder: full service while the
//	                    queue is healthy; journal-and-defer (202 +
//	                    durable accept, background classification) as
//	                    depth rises past the high-water mark or on
//	                    overflow; 429 only once the defer queue is full
//	                    too. Retransmits of a completed request ID are
//	                    answered from the verdict ledger.
//	GET  /result        ?id=<request id>: verdicts of a deferred batch
//	                    (200), 204 while still pending, 404 if unknown.
//	POST /admin/reload  rule set JSON (`longtail rulemine -json`) in;
//	                    hot-swaps the served rules. A set that fails
//	                    validation leaves the old generation serving
//	                    (degraded mode).
//	GET  /healthz       liveness + generation, queue depth, journal
//	                    state; "degraded" after a refused reload.
//	GET  /metrics       Prometheus-style text exposition.
type Server struct {
	engine *Engine
	// policy applies to rule sets loaded through /admin/reload.
	policy classify.ConflictPolicy
	// ledger is the durable exactly-once request ledger; nil runs the
	// server stateless (the pre-journal behavior).
	ledger *Ledger
	// deferHighWater is the queue-load fraction beyond which new
	// journaled batches are deferred instead of classified inline:
	// defaultDeferHighWater, except in tests that defer every batch.
	deferHighWater float64

	deferCh   chan string
	deferCtx  context.Context
	deferStop context.CancelFunc
	deferDone chan struct{}

	// metricsAppenders extend GET /metrics with additional exposition
	// blocks (e.g. the lifecycle's per-rule efficacy counters).
	metricsAppenders []func(io.Writer)
}

const defaultDeferHighWater = 0.75

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithLedger attaches the durable verdict ledger, enabling request-ID
// dedup, the journal-and-defer admission rung and GET /result.
func WithLedger(l *Ledger) ServerOption {
	return func(s *Server) { s.ledger = l }
}

// WithMetricsAppender registers a function that appends extra
// Prometheus-style exposition lines to GET /metrics after the engine's
// own block. Appenders run in registration order on the request path,
// so they must be fast and internally synchronized.
func WithMetricsAppender(f func(io.Writer)) ServerOption {
	return func(s *Server) {
		if f != nil {
			s.metricsAppenders = append(s.metricsAppenders, f)
		}
	}
}

// NewServer wraps an engine; reloaded rule sets use the given conflict
// policy (the paper's choice is classify.Reject).
func NewServer(engine *Engine, policy classify.ConflictPolicy, opts ...ServerOption) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	s := &Server{engine: engine, policy: policy, deferHighWater: defaultDeferHighWater}
	for _, opt := range opts {
		opt(s)
	}
	if s.ledger != nil {
		s.deferCh = make(chan string, 256)
		s.deferCtx, s.deferStop = context.WithCancel(context.Background())
		s.deferDone = make(chan struct{})
		go s.deferLoop()
	}
	return s, nil
}

// Close stops the background deferred-batch worker. Idempotent; safe to
// call on a stateless server. Pending journal entries stay on disk for
// the next process's recovery — that is the point.
func (s *Server) Close() {
	if s.deferStop == nil {
		return
	}
	s.deferStop()
	<-s.deferDone
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", s.handleClassify)
	mux.HandleFunc("/result", s.handleResult)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/admin/handoff/export", s.handleHandoffExport)
	mux.HandleFunc("/admin/handoff/import", s.handleHandoffImport)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// maxEventLine bounds one request line (matches export.ReadStore's
// scanner budget).
const maxEventLine = 1 << 22

// copyBufPool holds scratch buffers for draining request bodies.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// maxBodyBytes caps every request body a node or the router reads. It
// is the journal's record limit: a larger batch could never be
// accepted, so reading it only spends memory on a client's say-so.
const maxBodyBytes = journal.MaxRecordBytes

// ErrBodyTooLarge refuses a body that declares or delivers more than
// maxBodyBytes; BodyErrorStatus turns it into a 413.
var ErrBodyTooLarge = fmt.Errorf("serve: request body exceeds %d bytes", maxBodyBytes)

// errBatchTooLarge refuses a batch with more events than the ingest
// queue holds, also a 413. Admission is all-or-nothing, so no amount of
// waiting or retrying would ever classify it.
var errBatchTooLarge = errors.New("serve: batch exceeds the ingest queue")

// LimitBody bounds r.Body at maxBodyBytes, and refuses up front a
// request whose Content-Length already says it is larger — before any
// buffer is sized from that client-declared number.
func LimitBody(w http.ResponseWriter, r *http.Request) error {
	if r.ContentLength > maxBodyBytes {
		return ErrBodyTooLarge
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	return nil
}

// ReadBody reads a whole request body under LimitBody's cap.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if err := LimitBody(w, r); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := drainBody(&buf, r)
	return buf.Bytes(), err
}

// BodyErrorStatus is the status for a body that could not be read or
// parsed: 413 when the cap was hit, 400 otherwise.
func BodyErrorStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) || errors.Is(err, errBatchTooLarge) || errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody is ReadBody for a caller that has applied LimitBody and
// parses a string: strings.Builder's String() hands back its buffer
// without the second copy a []byte→string conversion would pay.
func readBody(r *http.Request) (string, error) {
	var sb strings.Builder
	err := drainBody(&sb, r)
	return sb.String(), err
}

// drainBody is the one reader of request bodies, the node's and the
// router's: it copies r.Body, which LimitBody has bounded, into dst.
// Content-Length (which our own client always sends, and which
// LimitBody has already refused when above the cap) sizes dst up
// front, so the whole body lands in one allocation instead of
// io.ReadAll's doubling churn; only a body without a length grows as
// it is read.
func drainBody(dst interface {
	io.Writer
	Grow(int)
}, r *http.Request) error {
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		dst.Grow(int(n))
	}
	bp := copyBufPool.Get().(*[]byte)
	// The wrapper hides bytes.Buffer's ReadFrom, which io.CopyBuffer
	// would prefer to the scratch buffer and which regrows a buffer
	// that is exactly full to find the end of the stream.
	_, err := io.CopyBuffer(struct{ io.Writer }{dst}, r.Body, *bp)
	copyBufPool.Put(bp)
	return err
}

// minEventLine and minVerdictLine are what the shortest canonical event
// and verdict lines weigh, newline included: an event line of one-byte
// fields is 112 bytes, a verdict line 55.
const (
	minEventLine   = 112
	minVerdictLine = 55
)

// lineCapacity is how many records of at least minLine bytes a
// line-oriented body can hold: the slice capacity to decode it into. It
// is bounded by the bytes as well as by the newlines, because a body of
// blank lines has one newline per byte and not one record — sized by
// newlines alone, 64 MiB of them (inside maxBodyBytes) would ask for
// 7.5 GB of events before one is parsed. A body of shorter,
// non-canonical lines grows the slice as it is appended to.
func lineCapacity(body string, minLine int) int {
	return min(strings.Count(body, "\n"), len(body)/minLine) + 1
}

// readEvents parses the line-JSON request body. The whole body is read
// once into a single string; canonical event lines decode by slicing
// substrings out of it, each straight into its slot of the returned
// slice (export.ParseEventLineInto), so the per-event parse cost is
// allocation-free and copies no event. With keepBody it also returns the normalized
// wire form (non-empty lines, '\n'-terminated) so a journaling server
// can log the batch verbatim instead of re-marshaling it; a body that
// is already normalized — every batch our client sends — is returned
// as-is, with no copy.
func readEvents(r *http.Request, keepBody bool) ([]dataset.DownloadEvent, string, error) {
	raw, err := readBody(r)
	if err != nil {
		return nil, "", err
	}
	s := raw
	events := make([]dataset.DownloadEvent, 0, lineCapacity(s, minEventLine))
	// The raw body is its own normalized form until the scan finds a
	// blank line, a '\r', or a missing final newline; body stays nil
	// (no copy) until that first deviation.
	normalized := true
	var body []byte
	lineNo := 0
	for len(s) > 0 {
		lineStart := len(raw) - len(s)
		line := s
		hadNL := false
		if nl := strings.IndexByte(s, '\n'); nl >= 0 {
			line, s = s[:nl], s[nl+1:]
			hadNL = true
		} else {
			s = ""
		}
		// Match the old bufio.ScanLines framing: trailing '\r' stripped,
		// empty lines skipped (but counted), oversized lines refused.
		lineNo++
		trimmed := strings.TrimSuffix(line, "\r")
		if keepBody && normalized && (!hadNL || len(trimmed) != len(line) || len(trimmed) == 0) {
			normalized = false
			body = append(make([]byte, 0, len(raw)+1), raw[:lineStart]...)
		}
		line = trimmed
		if len(line) == 0 {
			continue
		}
		if len(line) > maxEventLine {
			return nil, "", bufio.ErrTooLong
		}
		events = append(events, dataset.DownloadEvent{})
		if err := export.ParseEventLineInto(&events[len(events)-1], line); err != nil {
			return nil, "", fmt.Errorf("line %d: %w", lineNo, err)
		}
		if keepBody && !normalized {
			body = append(body, line...)
			body = append(body, '\n')
		}
	}
	if !keepBody {
		return events, "", nil
	}
	if normalized {
		return events, raw, nil
	}
	return events, string(body), nil
}

// readBinaryEvents decodes a binary-format /classify body. With
// keepBody it also renders the batch's canonical line-JSON form — what
// the ledger journals — so the journal, handoff chunks and recovery
// speak exactly one format no matter what the wire spoke,
// and a client may switch formats between a transmit and its
// retransmit without splitting the dedup state.
func readBinaryEvents(r *http.Request, keepBody bool) ([]dataset.DownloadEvent, string, error) {
	raw, err := readBody(r)
	if err != nil {
		return nil, "", err
	}
	events, err := decodeBinaryEvents(raw)
	if err != nil {
		return nil, "", err
	}
	if !keepBody {
		return events, "", nil
	}
	body := make([]byte, 0, len(raw)*2)
	for i := range events {
		body, err = export.AppendEventLine(body, &events[i])
		if err != nil {
			return nil, "", err
		}
		body = append(body, '\n')
	}
	return events, string(body), nil
}

// binaryRequest reports whether the /classify request negotiated the
// binary wire format via its Content-Type.
func binaryRequest(r *http.Request) bool { return isBinaryEvents(r.Header.Get("Content-Type")) }

func isBinaryEvents(contentType string) bool {
	return contentType == ContentTypeBinaryEvents || strings.HasPrefix(contentType, ContentTypeBinaryEvents+";")
}

// wantsBinaryVerdicts reports whether the client asked GET /result for
// binary-format verdicts via its Accept header.
func wantsBinaryVerdicts(r *http.Request) bool {
	a := r.Header.Get("Accept")
	return a == ContentTypeBinaryVerdicts || strings.HasPrefix(a, ContentTypeBinaryVerdicts+";")
}

// classifyCall is one /classify request as the stages see it.
type classifyCall struct {
	id        string
	journaled bool // a ledger is attached and the request carries an ID
	binary    bool // the request negotiated the binary wire format
	events    []dataset.DownloadEvent
	// wire is the batch's canonical line-JSON form, what the ledger
	// journals; "" when the call is not journaled.
	wire string
}

// classifyResponse is a /classify answer as data; handleClassify is
// the one place it is written out. Status 0 means 200; a status >= 400
// carries its message in body.
type classifyResponse struct {
	status      int
	retryAfter  bool
	contentType string // "" leaves net/http's default
	body        []byte
}

var errPostOnly = errors.New("POST only")

// badRequestError marks a request refused as sent: a deadline header
// nobody can read, a body the decode stage could not take.
type badRequestError struct{ error }

// errorResponse maps a stage's error to its HTTP status — the one place
// a /classify failure becomes a status code. Anything unrecognized
// (journal I/O, a ledger body that no longer parses) is a 500.
func errorResponse(err error) *classifyResponse {
	resp := &classifyResponse{status: http.StatusInternalServerError, body: []byte(err.Error())}
	var bad badRequestError
	switch {
	case errors.Is(err, errPostOnly):
		resp.status = http.StatusMethodNotAllowed
	case errors.As(err, &bad):
		resp.status = BodyErrorStatus(bad.error)
	case errors.Is(err, ErrOverloaded):
		// Top of the admission ladder: shed.
		resp.status, resp.retryAfter = http.StatusTooManyRequests, true
	case errors.Is(err, ErrDeadlineExceeded):
		// The client's deadline expired in-queue; the work was shed.
		resp.status, resp.retryAfter = http.StatusServiceUnavailable, true
	case errors.Is(err, ErrDraining):
		resp.status = http.StatusServiceUnavailable
	}
	return resp
}

// deferredResponse acknowledges a journaled-and-deferred batch: the
// events are durable, classification happens in the background, and the
// client fetches the verdicts from GET /result.
func deferredResponse(id string) *classifyResponse {
	body, _ := json.Marshal(map[string]any{"deferred": true, "id": id}) // a string and a bool cannot fail to marshal
	return &classifyResponse{status: http.StatusAccepted, body: append(body, '\n')}
}

// verdictResponse renders freshly classified verdicts in the format
// the request negotiated, by the same append encoders the ledger
// journals with.
func verdictResponse(verdicts []VerdictRecord, binary bool) *classifyResponse {
	if binary {
		return &classifyResponse{
			contentType: ContentTypeBinaryVerdicts,
			body:        appendBinaryVerdicts(make([]byte, 0, 16+verdictBodySize(verdicts)), verdicts),
		}
	}
	return &classifyResponse{body: appendVerdictBody(make([]byte, 0, verdictBodySize(verdicts)), verdicts)}
}

// ledgerResponse renders a response body the ledger already journaled —
// a first response after Result, a dedup replay, a GET /result hit. The
// stored body is canonical line-JSON; a binary-negotiated request gets
// it re-encoded through the deterministic binary codec, so retransmit
// replies stay byte-identical within each format.
func ledgerResponse(body []byte, binary bool) (*classifyResponse, error) {
	if !binary {
		return &classifyResponse{body: body}, nil
	}
	verdicts, err := parseVerdictBody(body)
	if err != nil {
		return nil, err
	}
	return verdictResponse(verdicts, true), nil
}

// ParseTimeout reads a TimeoutHeader value, for a node and for the
// router in front of it alike: "" is no deadline, a positive count of
// milliseconds is one, and anything else is an error the caller answers
// with 400 — a client that states a deadline nobody can read should
// hear so, not be served without one.
func ParseTimeout(header string) (time.Duration, error) {
	if header == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(header, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, errors.New("bad timeout header")
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// handleClassify runs one batch through the stages dedup → decode →
// admit → submit → accept → record → respond, on one goroutine. A stage
// returns a response when it has answered the request, an error when it
// has failed it, and neither to pass the call on.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	c := &classifyCall{id: r.Header.Get(RequestIDHeader), binary: binaryRequest(r)}
	c.journaled = s.ledger != nil && c.id != ""
	var resp *classifyResponse
	var err error
	var timeout time.Duration
	if r.Method != http.MethodPost {
		err = errPostOnly
	} else if timeout, err = ParseTimeout(r.Header.Get(TimeoutHeader)); err != nil {
		s.engine.Metrics().BadRequests.Add(1)
		err = badRequestError{err}
	}
	if err == nil {
		resp, err = s.dedupStage(c)
	}
	if resp == nil && err == nil {
		start := time.Now()
		err = s.decodeStage(w, r, c)
		s.engine.Metrics().Decode.Observe(time.Since(start))
	}
	if resp == nil && err == nil {
		resp, err = s.admitStage(c)
	}
	if resp == nil && err == nil {
		// The batch goes to the engine, then its accept record to the
		// journal, both on this goroutine. Frames handed to the workers
		// classify while the accept is written and fsynced, so a large
		// batch's fsync hides behind its classification; a small batch
		// was classified inside Submit and pays for one append and the
		// fsync it leads or joins, with no hand-off in between. The
		// response is held until the accept is durable. The client's
		// deadline rides into the shard queues so expired work is shed.
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		batch, cerr := s.engine.Submit(ctx, c.events)
		if c.journaled {
			start := time.Now()
			err = s.ledger.AcceptWire(c.id, c.events, c.wire)
			s.engine.Metrics().Commit.Observe(time.Since(start))
		}
		var verdicts []VerdictRecord
		if cerr == nil {
			verdicts, cerr = batch.Wait()
		}
		switch {
		case err != nil: // not durable: fail the request whatever classification said
		case cerr != nil:
			resp, err = s.shedStage(c, cerr)
		default:
			start := time.Now()
			resp, err = s.recordStage(c, verdicts)
			s.engine.Metrics().Encode.Observe(time.Since(start))
		}
	}
	if err != nil {
		resp = errorResponse(err)
	}
	if resp.retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	if resp.status >= http.StatusBadRequest {
		http.Error(w, string(resp.body), resp.status)
		return
	}
	if resp.contentType != "" {
		w.Header().Set("Content-Type", resp.contentType)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body))) // or net/http chunks any reply past 2 KB
	if resp.status != 0 {
		w.WriteHeader(resp.status)
	}
	w.Write(resp.body)
}

// dedupStage is exactly-once: a retransmit of a completed batch replays
// the journaled response verbatim (re-encoded binary when this
// retransmit negotiated it); one still in flight (or deferred) is
// re-acknowledged and nudged toward the background worker.
func (s *Server) dedupStage(c *classifyCall) (*classifyResponse, error) {
	if !c.journaled {
		return nil, nil
	}
	if body, ok := s.ledger.Lookup(c.id); ok {
		m := s.engine.Metrics()
		m.DedupHits.Add(1)
		m.RequestsAccepted.Add(1)
		return ledgerResponse(body, c.binary)
	}
	if s.ledger.IsPending(c.id) {
		s.enqueueDeferred(c.id)
		return deferredResponse(c.id), nil
	}
	return nil, nil
}

// decodeStage parses the request body in the format it negotiated,
// keeping the canonical wire form when the batch will be journaled. A
// batch the engine could never admit is refused here, before anything
// is journaled: accepted, it would sit at the head of the deferred
// queue forever and fail every later boot's recovery.
func (s *Server) decodeStage(w http.ResponseWriter, r *http.Request, c *classifyCall) error {
	err := LimitBody(w, r)
	switch {
	case err != nil:
	case c.binary:
		c.events, c.wire, err = readBinaryEvents(r, c.journaled)
	default:
		c.events, c.wire, err = readEvents(r, c.journaled)
	}
	if err == nil && len(c.events) > s.engine.Capacity() {
		err = fmt.Errorf("%w: %d events, capacity %d", errBatchTooLarge, len(c.events), s.engine.Capacity())
	}
	if err != nil {
		s.engine.Metrics().BadRequests.Add(1)
		return badRequestError{err}
	}
	return nil
}

// admitStage is rung 2 of the admission ladder: past the high-water
// mark, journal the batch durably and classify it in the background
// instead of making the client wait in a saturated queue.
func (s *Server) admitStage(c *classifyCall) (*classifyResponse, error) {
	if !c.journaled || s.engine.QueueDepth() < int(s.deferHighWater*float64(s.engine.Capacity())) {
		return nil, nil
	}
	return s.deferBatch(c)
}

// deferBatch journals the batch durably and hands it to the background
// worker, answering 202. It answers nothing when the defer queue is
// saturated: the accept record stays journaled, the caller moves on to
// the next rung, and a retry of a shed batch is re-acknowledged as
// pending and re-enqueued once there is room.
func (s *Server) deferBatch(c *classifyCall) (*classifyResponse, error) {
	if err := s.ledger.AcceptWire(c.id, c.events, c.wire); err != nil {
		return nil, err
	}
	if !s.enqueueDeferred(c.id) {
		return nil, nil
	}
	s.engine.Metrics().RequestsDeferred.Add(1)
	return deferredResponse(c.id), nil
}

// shedStage answers a batch the engine refused. A journaled batch is
// deferred instead of shed: on overflow (the queue filled between the
// admit check and the reservation) through rung 2 again, on an expired
// deadline directly — it is already durable, so it finishes in the
// background and the client picks the verdicts up later. Everything
// else is the engine's error, counted as rejected when it is overload.
func (s *Server) shedStage(c *classifyCall, cerr error) (*classifyResponse, error) {
	m := s.engine.Metrics()
	switch {
	case errors.Is(cerr, ErrOverloaded):
		if c.journaled {
			if resp, err := s.deferBatch(c); resp != nil || err != nil {
				return resp, err
			}
		}
		m.RequestsRejected.Add(1)
	case errors.Is(cerr, ErrDeadlineExceeded) && c.journaled:
		s.enqueueDeferred(c.id)
		m.RequestsDeferred.Add(1)
		return deferredResponse(c.id), nil
	}
	return nil, cerr
}

// recordStage journals the verdicts of a journaled batch and renders
// the response. Result returns the canonical response body for the ID
// (the winner's bytes if a retransmit raced this request), which is
// what goes on the wire — dedup replies are byte-identical.
func (s *Server) recordStage(c *classifyCall, verdicts []VerdictRecord) (*classifyResponse, error) {
	if !c.journaled {
		s.engine.Metrics().RequestsAccepted.Add(1)
		return verdictResponse(verdicts, c.binary), nil
	}
	body, err := s.ledger.Result(c.id, verdicts)
	if err != nil {
		return nil, err
	}
	s.engine.Metrics().RequestsAccepted.Add(1)
	return ledgerResponse(body, c.binary)
}

// enqueueDeferred hands id to the background worker (idempotent: the
// worker skips IDs that already have results).
func (s *Server) enqueueDeferred(id string) bool {
	if s.deferCh == nil {
		return false
	}
	select {
	case s.deferCh <- id:
		return true
	default:
		return false
	}
}

// deferLoop classifies journaled-and-deferred batches in the
// background, retrying around transient overload with jittered
// backoff. On Close it exits immediately; unfinished batches remain
// journaled as pending and are replayed by recovery on the next boot —
// the same path a crash takes.
func (s *Server) deferLoop() {
	defer close(s.deferDone)
	for {
		select {
		case <-s.deferCtx.Done():
			return
		case id := <-s.deferCh:
			if _, done := s.ledger.Lookup(id); done {
				continue
			}
			events := s.ledger.PendingEvents(id)
			if events == nil {
				continue
			}
			// In slices the queue can hold, each retried around overload: a
			// batch imported from, or journaled by, a process with a larger
			// -queue must not wedge this worker.
			verdicts, err := classifyInSlices(s.engine, events, func(slice []dataset.DownloadEvent) (verdicts []VerdictRecord, err error) {
				err = retry.Do(s.deferCtx, retry.Policy{
					MaxAttempts:    -1,
					InitialBackoff: time.Millisecond,
					MaxBackoff:     50 * time.Millisecond,
				}, func(ctx context.Context) error {
					var cerr error
					verdicts, cerr = s.engine.ClassifyBatch(ctx, slice)
					if errors.Is(cerr, ErrDraining) {
						return retry.Permanent(cerr)
					}
					return cerr
				})
				return verdicts, err
			})
			if err != nil {
				continue // draining or closed: stays pending for recovery
			}
			s.ledger.Result(id, verdicts)
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		http.Error(w, "no journal attached", http.StatusNotFound)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	if respBody, ok := s.ledger.Lookup(id); ok {
		resp, err := ledgerResponse(respBody, wantsBinaryVerdicts(r))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if resp.contentType != "" {
			w.Header().Set("Content-Type", resp.contentType)
		}
		w.Write(resp.body)
		return
	}
	if s.ledger.IsPending(id) {
		s.enqueueDeferred(id)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	http.Error(w, "unknown request id", http.StatusNotFound)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	err := LimitBody(w, r)
	var clf *classify.Classifier
	if err == nil {
		clf, err = LoadRules(r.Body, s.policy)
	}
	if err != nil {
		// Supervised degraded mode: the old generation keeps serving;
		// health reports the refused update instead of flapping.
		s.engine.MarkDegraded(err.Error())
		s.engine.Metrics().BadRequests.Add(1)
		http.Error(w, err.Error(), BodyErrorStatus(err))
		return
	}
	gen, err := s.engine.Swap(clf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{
		"generation": gen,
		"rules":      len(clf.Rules),
	})
}

// handleHandoffExport streams this replica's full ledger as
// concatenated CRC-framed handoff records. The policy decision of
// *which* IDs are migrating lives with the caller (the cluster router
// knows the ring; this process does not), so the HTTP surface exports
// everything and the importer filters by ownership. Exporting is
// read-only: the source stays authoritative for every ID until an
// importer has durably acked it.
func (s *Server) handleHandoffExport(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		http.Error(w, "no journal attached", http.StatusNotFound)
		return
	}
	chunks, err := s.ledger.ExportRange(func(string) bool { return true }, DefaultHandoffChunkBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, c := range chunks {
		if _, err := w.Write(c.Data); err != nil {
			return
		}
	}
}

// handleHandoffImport installs one chunk of handoff records shipped in
// the request body. The 200 response IS the authority transfer: it is
// written only after ImportChunk has journaled and fsynced every entry,
// so a source that sees the ack may forget the range knowing a crash on
// this end cannot lose it. Errors (framing, journal I/O) leave the
// source authoritative — it simply retries or keeps the range pinned.
func (s *Server) handleHandoffImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.ledger == nil {
		http.Error(w, "no journal attached", http.StatusNotFound)
		return
	}
	data, err := ReadBody(w, r)
	if err != nil {
		s.engine.Metrics().BadRequests.Add(1)
		http.Error(w, err.Error(), BodyErrorStatus(err))
		return
	}
	st, err := s.ledger.ImportChunk(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(map[string]any{
		"imported":   st.Imported,
		"pending":    st.Pending,
		"duplicates": st.Duplicates,
	})
	// Imported pending batches still need verdicts; the deferred worker
	// classifies them exactly like recovered-from-journal accepts.
	for _, id := range s.ledger.PendingIDs() {
		s.enqueueDeferred(id)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	resp := map[string]any{
		"generation": s.engine.Generation(),
		"queueDepth": s.engine.QueueDepth(),
		"rules":      s.engine.RuleCount(),
	}
	if reason := s.engine.DegradedReason(); reason != "" {
		status = "degraded"
		resp["degradedReason"] = reason
	}
	if s.ledger != nil {
		pending, completed := s.ledger.Counts()
		resp["journalPending"] = pending
		resp["journalCompleted"] = completed
	}
	resp["status"] = status
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var jm *JournalMetrics
	if s.ledger != nil {
		snap := s.ledger.JournalMetrics()
		jm = &snap
	}
	s.engine.Metrics().WriteTo(w, s.engine.QueueDepth(), s.engine.DegradedReason() != "", jm)
	for _, f := range s.metricsAppenders {
		f(w)
	}
}
