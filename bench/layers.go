package main

// Every call the benchmark makes into a layer package lives in this
// file, one call site per function, so a rename in a layer costs one
// line here. The first half is what generation and verification need
// (experiments, export, features, classify, serve.Client) and is all
// the untraced run uses; the second half is the traced replay's view of
// the serving path's public functions.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/features"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/synth"
)

type (
	event  = dataset.DownloadEvent
	vector = features.Vector
)

// world is the daemons' deterministic context rebuilt in this process:
// the corpus events to draw traffic from and the offline classifier
// every served verdict is checked against.
type world struct {
	events []event
	ex     *features.Extractor
	clf    *classify.Classifier
}

// buildWorld mirrors what a bare longtaild does at boot: generate and
// label the corpus, train on its first month. The benchmark always
// passes corpusScale, the daemons' default; the package's tests build a
// smaller one.
func buildWorld(scale float64) (*world, error) {
	p, err := experiments.Run(synth.DefaultConfig(corpusSeed, scale))
	if err != nil {
		return nil, err
	}
	ex, err := features.NewExtractor(p.Store, p.Result.Oracle)
	if err != nil {
		return nil, err
	}
	months := p.Store.Months()
	if len(months) == 0 {
		return nil, fmt.Errorf("corpus has no events")
	}
	train, err := ex.Instances(p.Store.EventIndexesInMonth(months[0]))
	if err != nil {
		return nil, err
	}
	clf, err := classify.Train(train, corpusTau, classify.Reject)
	if err != nil {
		return nil, err
	}
	return &world{events: p.Store.Events(), ex: ex, clf: clf}, nil
}

func (w *world) vector(ev *event) (features.Vector, error) { return w.ex.Vector(ev) }

func (w *world) match(vec features.Vector, ev *event) (classify.Verdict, []int) {
	inst := features.Instance{Vector: vec, File: ev.File}
	return w.clf.ClassifyOne(&inst)
}

func (w *world) ruleCount() int { return len(w.clf.Rules) }

// offlineKey is the verdict the offline classifier gives ev, rendered
// the way serve.VerdictRecord.Key renders a served one.
func (w *world) offlineKey(ev *event) (string, error) {
	vec, err := w.vector(ev)
	if err != nil {
		return "", err
	}
	v, matched := w.match(vec, ev)
	return fmt.Sprintf("%s %s %v", ev.File, v, matched), nil
}

func appendEventLine(dst []byte, ev *event) ([]byte, error) { return export.AppendEventLine(dst, ev) }

// encodeBody renders a /classify body with the repository's own
// encoders, so the generator follows whatever the wire becomes: one
// export.AppendEventLine line per event, or the binary format. The
// binary codec is unexported; its output is what serve.Client puts on
// the wire, taken off the client's request by a transport that keeps
// the body and sends nothing.
func encodeBody(events []event, binaryWire bool) ([]byte, error) {
	if binaryWire {
		var kept bodyKeeper
		c := newClient("http://encode.invalid", true)
		//lint:allow retrypolicy nothing is sent: the transport only keeps the body serve.Client encoded
		c.HTTPClient = &http.Client{Transport: &kept}
		// The empty reply makes the client report a verdict-count error.
		if _, err := classifyChecked(context.Background(), c, "encode", events); kept.body == nil {
			return nil, fmt.Errorf("binary body of %d events: %w", len(events), err)
		}
		return kept.body, nil
	}
	body := make([]byte, 0, 320*len(events))
	for i := range events {
		var err error
		if body, err = appendEventLine(body, &events[i]); err != nil {
			return nil, err
		}
		body = append(body, '\n')
	}
	return body, nil
}

// bodyKeeper answers every request with an empty 200 and keeps the body
// it was handed.
type bodyKeeper struct{ body []byte }

func (k *bodyKeeper) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	k.body = body
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: r}, nil
}

func parseEventLine(line string) (event, error) { return export.ParseEventLine(line) }

const (
	contentTypeBinary = serve.ContentTypeBinaryEvents
	requestIDHeader   = serve.RequestIDHeader
)

// verdictCount counts the verdicts in a /classify response without
// decoding them: lines on the JSON wire, the u32 after the 4-byte magic
// on the binary one (layout documented in serve/wire.go).
func verdictCount(resp []byte, binaryWire bool) int {
	if !binaryWire {
		return bytes.Count(resp, []byte{'\n'})
	}
	if len(resp) < 8 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(resp[4:8]))
}

// newClient is the checked path to a daemon: serve.Client decodes the
// verdicts for the verify pass and reads /metrics and /healthz.
func newClient(base string, binaryWire bool) *serve.Client {
	return &serve.Client{BaseURL: base, Binary: binaryWire}
}

// classifyChecked sends one batch through serve.Client and returns each
// verdict's generation-independent key.
func classifyChecked(ctx context.Context, c *serve.Client, id string, events []event) ([]string, error) {
	var verdicts []serve.VerdictRecord
	var err error
	if id == "" {
		verdicts, err = c.Classify(ctx, events)
	} else {
		verdicts, err = c.ClassifyWithID(ctx, id, events)
	}
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(verdicts))
	for i := range verdicts {
		keys[i] = verdicts[i].Key()
	}
	return keys, nil
}

func fetchMetrics(ctx context.Context, c *serve.Client) (string, error) { return c.Metrics(ctx) }

func healthy(ctx context.Context, c *serve.Client) bool {
	h, err := c.Health(ctx)
	return err == nil && h["status"] == "ok"
}

// ---- traced replay only below ----

// stack is one in-process serving stack: engine, optional ledger, and
// the HTTP handler over both.
type stack struct {
	engine  *serve.Engine
	ledger  *serve.Ledger
	server  *serve.Server
	handler http.Handler
}

func openLedger(dir string) (*serve.Ledger, error) {
	l, _, err := serve.OpenLedger(serve.LedgerOptions{
		Journal:    journal.Options{Dir: dir},
		Shards:     journalShards,
		MaxResults: resultRetention,
	})
	return l, err
}

// newStack builds the stack a daemon builds, with the pinned daemon
// sizes; journalDir "" leaves it stateless.
func newStack(w *world, journalDir string) (*stack, error) {
	engine, err := serve.NewEngine(w.ex, w.clf, serve.EngineConfig{Shards: engineShards, QueueSize: engineQueue}, &serve.Metrics{})
	if err != nil {
		return nil, err
	}
	s := &stack{engine: engine}
	var opts []serve.ServerOption
	if journalDir != "" {
		if s.ledger, err = openLedger(journalDir); err != nil {
			engine.Close()
			return nil, err
		}
		opts = append(opts, serve.WithLedger(s.ledger))
	}
	if s.server, err = serve.NewServer(engine, classify.Reject, opts...); err != nil {
		s.close()
		return nil, err
	}
	s.handler = s.server.Handler()
	return s, nil
}

func (s *stack) close() {
	if s.server != nil {
		s.server.Close()
	}
	s.engine.Close()
	if s.ledger != nil {
		s.ledger.Close()
	}
}

func (s *stack) classifyBatch(ctx context.Context, events []event) ([]serve.VerdictRecord, error) {
	return s.engine.ClassifyBatch(ctx, events)
}

func (s *stack) ledgerLookup(id string) bool {
	_, ok := s.ledger.Lookup(id)
	return ok
}

func (s *stack) ledgerAccept(id string, events []event, body string) error {
	return s.ledger.AcceptWire(id, events, body)
}

func (s *stack) ledgerResult(id string, verdicts []serve.VerdictRecord) error {
	_, err := s.ledger.Result(id, verdicts)
	return err
}

func (s *stack) ledgerCompact() error { return s.ledger.Compact() }

// ledgerExport streams the whole ledger as handoff chunks and returns
// them with the number of entries they carry.
func (s *stack) ledgerExport() ([][]byte, int, error) {
	chunks, err := s.ledger.ExportRange(func(string) bool { return true }, serve.DefaultHandoffChunkBytes)
	if err != nil {
		return nil, 0, err
	}
	var data [][]byte
	entries := 0
	for _, c := range chunks {
		data = append(data, c.Data)
		entries += c.Entries
	}
	return data, entries, nil
}

func (s *stack) ledgerImport(chunk []byte) error {
	_, err := s.ledger.ImportChunk(chunk)
	return err
}

// rawJournal is a bare sharded WAL for timing appends without a ledger.
type rawJournal struct{ j *journal.Sharded }

func openJournal(dir string) (*rawJournal, error) {
	j, _, err := journal.OpenSharded(journal.Options{Dir: dir}, journalShards)
	if err != nil {
		return nil, err
	}
	return &rawJournal{j}, nil
}

func (r *rawJournal) appendSync(key string, payload []byte) error {
	return r.j.AppendFunc(key, 1, func(dst []byte) []byte { return append(dst, payload...) })
}

func (r *rawJournal) appendAsync(key string, payload []byte) error {
	return r.j.AppendAsyncFunc(key, 1, func(dst []byte) []byte { return append(dst, payload...) })
}

func (r *rawJournal) close() error { return r.j.Close() }

func newRing(addrs []string) (*cluster.Ring, error) {
	return cluster.NewRing(addrs, cluster.DefaultVirtualNodes)
}

func ringOwner(r *cluster.Ring, id string) string { return r.Owner(id) }

// newRouter builds an in-process router with the longtailrouter flag
// defaults over live replicas.
func newRouter(addrs []string) (*cluster.Router, error) {
	return cluster.NewRouter(cluster.Options{Replicas: addrs, ProbeInterval: 2 * time.Second})
}

func routerHandler(rt *cluster.Router) http.Handler { return rt.Handler() }

func routerForward(ctx context.Context, rt *cluster.Router, id string, body []byte) ([]byte, error) {
	return rt.Forward(ctx, id, body, 0)
}
