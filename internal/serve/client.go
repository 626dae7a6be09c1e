package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/retry"
)

// Client is the request side of the serving wire protocol, used by
// cmd/loadgen and the throughput benchmark. The uplink retries with
// exponential backoff and full jitter: transport errors, 5xx and 429
// (backpressure) are retryable; 4xx are permanent. HTTPClient's
// Transport is the decoration point for internal/faults injectors —
// wrap it with a faulty RoundTripper and the retry machinery absorbs
// the injected failures exactly as the PR 1 uplink does.
//
// Every /classify batch carries a stable X-Request-Id, held constant
// across retries of that batch, so a server with a verdict ledger
// deduplicates retransmits: a retry whose original attempt actually
// landed (the response was lost, not the request) replays the
// journaled verdicts instead of classifying twice.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8787".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient when nil.
	HTTPClient *http.Client
	// Retry is the uplink retry policy; the zero value selects the
	// package defaults (5 attempts, 50ms initial backoff).
	Retry retry.Policy
	// RequestIDPrefix namespaces generated request IDs (e.g. one prefix
	// per loadgen worker) so independent clients never collide in the
	// server's dedup ledger. Default "req".
	RequestIDPrefix string
	// Timeout, when set, is sent as the per-request deadline header so
	// the server can shed work this client has already given up on.
	Timeout time.Duration
	// Binary selects the compact binary wire format for /classify and
	// /result (Content-Type negotiation; see wire.go). Retransmit safety
	// is unaffected — the server journals one canonical form — so a
	// client may flip this between a transmit and its retransmit.
	Binary bool

	seq atomic.Uint64

	// Deferred counts 202 journal-and-defer responses this client
	// resolved by polling GET /result; Deduped counts batches whose
	// verdicts came from the server's ledger (header-signaled).
	Deferred atomic.Uint64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// idChecksum is the content-hash table for request IDs: CRC-32C runs
// hardware-accelerated at memory speed, where a byte-at-a-time FNV over
// a full batch body cost ~100µs of dependent multiplies per request.
var idChecksum = crc32.MakeTable(crc32.Castagnoli)

// nextRequestID derives a stable per-batch ID: prefix, client-local
// sequence, and a content checksum so the ID is also self-describing in
// journal dumps. Uniqueness comes from the sequence number; the
// checksum only ties the ID to the batch bytes for a human reading a
// journal dump, so a 32-bit CRC is plenty.
func (c *Client) nextRequestID(body []byte) string {
	prefix := c.RequestIDPrefix
	if prefix == "" {
		prefix = "req"
	}
	return fmt.Sprintf("%s-%06d-%08x", prefix, c.seq.Add(1), crc32.Checksum(body, idChecksum))
}

// do's readings of a 202 and a 204. errDeferred: the server journaled
// the batch and deferred classification; the verdicts come from
// /result. errPending: /result says the batch is journaled but not yet
// classified — retryable, so pollResult's backoff asks again.
var (
	errDeferred = errors.New("serve: batch deferred")
	errPending  = errors.New("serve: result still pending")
)

// do performs one exchange — header is name, value pairs, empty values
// skipped — and returns the response body, its Content-Type and the one
// reading of the status every method shares: nil for 200, errDeferred
// for 202, errPending for 204, a retryable error for 429 (backpressure)
// and 5xx, a permanent one for any other status. Transport errors are
// retryable. The body is returned whatever the status.
func (c *Client) do(ctx context.Context, method, path string, body []byte, header ...string) (data []byte, replyType string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, "", retry.Permanent(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		if header[i+1] != "" {
			req.Header.Set(header[i], header[i+1])
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n > 0 && n <= maxBodyBytes {
		// One buffer of the declared size, as drainBody reads requests.
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, "", err
	}
	route, _, _ := strings.Cut(path, "?")
	switch code := resp.StatusCode; {
	case code == http.StatusOK:
	case code == http.StatusAccepted:
		err = errDeferred
	case code == http.StatusNoContent:
		err = errPending
	case code == http.StatusTooManyRequests || code >= 500:
		err = fmt.Errorf("serve: %s: %s", route, resp.Status)
	default:
		err = retry.Permanent(&StatusError{code, fmt.Errorf("serve: %s: %s: %s", route, resp.Status, bytes.TrimSpace(data))})
	}
	return data, resp.Header.Get("Content-Type"), err
}

// StatusError is do's permanent error for a request the server refused
// (a 4xx other than 429), so a forwarder can relay the status.
type StatusError struct {
	Code int
	error
}

// timeoutHeader renders a per-request deadline for TimeoutHeader; "" —
// no header — when there is none.
func timeoutHeader(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return strconv.FormatInt(d.Milliseconds(), 10)
}

// post sends body and returns the response body, retrying per policy.
// The same requestID header rides every attempt. deferred reports a
// 202; the caller polls /result.
func (c *Client) post(ctx context.Context, path string, body []byte, requestID, contentType string) (out []byte, deferred bool, err error) {
	err = retry.Do(ctx, c.Retry, func(ctx context.Context) error {
		var err error
		out, _, err = c.do(ctx, http.MethodPost, path, body,
			RequestIDHeader, requestID, "Content-Type", contentType, TimeoutHeader, timeoutHeader(c.Timeout))
		if deferred = errors.Is(err, errDeferred); deferred {
			return nil
		}
		return err
	})
	return out, deferred, err
}

// Classify streams a batch of events to /classify and parses the
// verdict records, which arrive in input order. A generated request ID
// (stable across retries) makes the batch retransmit-safe against a
// ledger-backed server.
func (c *Client) Classify(ctx context.Context, events []dataset.DownloadEvent) ([]VerdictRecord, error) {
	body, err := c.marshalEvents(events)
	if err != nil {
		return nil, err
	}
	return c.classify(ctx, c.nextRequestID(body), body, len(events))
}

// ClassifyWithID is Classify with a caller-chosen request ID — the
// handle for exactly-once delivery across client restarts: resending a
// batch under its original ID after a crash (of either side) yields
// the original verdicts, never a second accounting.
func (c *Client) ClassifyWithID(ctx context.Context, id string, events []dataset.DownloadEvent) ([]VerdictRecord, error) {
	body, err := c.marshalEvents(events)
	if err != nil {
		return nil, err
	}
	return c.classify(ctx, id, body, len(events))
}

func (c *Client) marshalEvents(events []dataset.DownloadEvent) ([]byte, error) {
	if c.Binary {
		size := 8
		for i := range events {
			size += minBinaryEvent + len(events[i].File) + len(events[i].Machine) +
				len(events[i].Process) + len(events[i].URL) + len(events[i].Domain) + 4
		}
		return appendBinaryEvents(make([]byte, 0, size), events), nil
	}
	return marshalEvents(events)
}

func marshalEvents(events []dataset.DownloadEvent) ([]byte, error) {
	size := 0
	for i := range events {
		size += 128 + len(events[i].File) + len(events[i].Machine) +
			len(events[i].Process) + len(events[i].URL) + len(events[i].Domain)
	}
	body := make([]byte, 0, size)
	for i := range events {
		line, err := export.AppendEventLine(body, &events[i])
		if err != nil {
			return nil, err
		}
		body = append(line, '\n')
	}
	return body, nil
}

func (c *Client) classify(ctx context.Context, id string, body []byte, n int) ([]VerdictRecord, error) {
	ct := ""
	if c.Binary {
		ct = ContentTypeBinaryEvents
	}
	data, deferred, err := c.post(ctx, "/classify", body, id, ct)
	if err != nil {
		return nil, err
	}
	if deferred {
		c.Deferred.Add(1)
		data, err = c.pollResult(ctx, id, c.Binary)
		if err != nil {
			return nil, err
		}
	}
	var verdicts []VerdictRecord
	if c.Binary {
		verdicts, err = decodeBinaryVerdicts(string(data))
	} else {
		verdicts, err = parseVerdictBody(data)
	}
	if err != nil {
		return nil, err
	}
	if len(verdicts) != n {
		return nil, fmt.Errorf("serve: sent %d events, got %d verdicts", n, len(verdicts))
	}
	return verdicts, nil
}

// pollResult fetches the verdicts of a journaled-and-deferred batch,
// backing off while the background worker catches up (204); binary
// asks for them in the binary wire format.
func (c *Client) pollResult(ctx context.Context, id string, binary bool) (out []byte, err error) {
	pol := c.Retry
	if pol.MaxAttempts == 0 {
		pol.MaxAttempts = 50
	} else if pol.MaxAttempts > 0 {
		pol.MaxAttempts *= 10
	}
	accept := ""
	if binary {
		accept = ContentTypeBinaryVerdicts
	}
	err = retry.Do(ctx, pol, func(ctx context.Context) error {
		var err error
		out, _, err = c.do(ctx, http.MethodGet, "/result?id="+id, nil, "Accept", accept)
		return err
	})
	return out, err
}

// ClassifyRaw forwards a pre-marshaled event body under a caller-chosen
// request ID in exactly one attempt — the cluster router's building
// block, where retries, circuit breakers, and failover to ring
// successors live above this call rather than inside it. contentType is
// the body's wire format as the original client declared it ("" is
// line-JSON); the reply comes back with the Content-Type the replica
// gave it, so a forwarder can hand both through untouched. timeout,
// when positive, rides the deadline header so the replica can shed work
// the original caller has given up on. A 202 journal-and-defer response
// is resolved here by polling /result in the request's format: once a
// replica has accepted the batch, its ledger owns the verdict, so there
// is nothing to fail over.
func (c *Client) ClassifyRaw(ctx context.Context, id, contentType string, body []byte, timeout time.Duration) (data []byte, replyType string, err error) {
	data, replyType, err = c.do(ctx, http.MethodPost, "/classify", body,
		RequestIDHeader, id, "Content-Type", contentType, TimeoutHeader, timeoutHeader(timeout))
	switch {
	case err == nil:
		return data, replyType, nil
	case !errors.Is(err, errDeferred):
		return nil, "", err
	}
	c.Deferred.Add(1)
	binary := isBinaryEvents(contentType)
	replyType = ""
	if binary {
		replyType = ContentTypeBinaryVerdicts
	}
	data, err = c.pollResult(ctx, id, binary)
	return data, replyType, err
}

// Reload posts a rulemine-format JSON rule set to /admin/reload and
// returns the new rule-set generation.
func (c *Client) Reload(ctx context.Context, rulesJSON []byte) (uint64, error) {
	data, _, err := c.post(ctx, "/admin/reload", rulesJSON, "", "")
	if err != nil {
		return 0, err
	}
	var resp struct {
		Generation uint64 `json:"generation"`
		Rules      int    `json:"rules"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, fmt.Errorf("serve: reload response: %w", err)
	}
	return resp.Generation, nil
}

// Health fetches /healthz. A router that is not "ok" answers 503 with
// the same document, so the body is decoded whatever the status.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	var out map[string]any
	if jerr := json.Unmarshal(data, &out); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, err
	}
	return out, nil
}

// Lifecycle fetches /admin/lifecycle — the champion/challenger state a
// lifecycle-enabled daemon (or, aggregated, the cluster router) exposes.
func (c *Client) Lifecycle(ctx context.Context) (map[string]any, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/admin/lifecycle", nil)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// HandoffExport pulls the replica's full ledger as one stream of
// CRC-framed handoff records (the concatenation of its export chunks).
// Single-shot by design: the cluster orchestrator owns retry policy
// and breaker state, the same way it owns them for forwarded classify
// traffic.
func (c *Client) HandoffExport(ctx context.Context) ([]byte, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/admin/handoff/export", nil)
	return data, err
}

// HandoffImport ships one chunk of framed handoff records to the
// replica. A nil error means the receiver journaled and fsynced every
// entry before answering — the durable ack that lets the sender
// release authority for those IDs. Single-shot; callers wrap it in
// retry.Do.
func (c *Client) HandoffImport(ctx context.Context, chunk []byte) error {
	_, _, err := c.do(ctx, http.MethodPost, "/admin/handoff/import", chunk, "Content-Type", "application/octet-stream")
	return err
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	return string(data), err
}
