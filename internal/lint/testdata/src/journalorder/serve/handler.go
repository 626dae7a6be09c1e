// Package serve is the journalorder fixture: response bytes (or
// verdict channel sends) must never precede the batch's journal accept
// in the same function.
package serve

import "net/http"

type VerdictRecord struct {
	File    string
	Verdict string
}

type ledger struct{}

func (l *ledger) AcceptWire(id string, body []byte) error { return nil }
func (l *ledger) ImportChunk(data []byte) error           { return nil }
func (l *ledger) Result(id string, v []VerdictRecord) ([]byte, error) {
	return nil, nil
}

type wal struct{}

func (j *wal) AppendAsyncFunc(key string, kind byte, build func([]byte) []byte) error { return nil }

// response is a handler's answer as data, the staged handler's shape.
type response struct {
	status int
	body   []byte
}

func classify(body []byte) response { return response{status: http.StatusOK, body: body} }

// Good: journal first, respond second — the durable handshake.
func handleGood(w http.ResponseWriter, l *ledger, id string, body []byte) {
	if err := l.AcceptWire(id, body); err != nil {
		http.Error(w, "journal unavailable", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// Good: the staged shape — the accept overlaps classification on its
// own goroutine, the stages return data, and the one response write
// comes after both, in the function that issued the accept.
func handleStagedGood(w http.ResponseWriter, l *ledger, id string, body []byte) {
	accepted := make(chan error, 1)
	go func() { accepted <- l.AcceptWire(id, body) }()
	resp := classify(body)
	if err := <-accepted; err != nil {
		resp = response{status: http.StatusInternalServerError}
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// Bad: the staged shape with the two halves swapped — the response is
// written out and only then is the accept issued.
func handleStagedBad(w http.ResponseWriter, l *ledger, id string, body []byte) {
	resp := classify(body)
	w.WriteHeader(resp.status) // want `http response WriteHeader happens before the batch's journal record`
	w.Write(resp.body)         // want `http response Write happens before the batch's journal record`
	accepted := make(chan error, 1)
	go func() { accepted <- l.AcceptWire(id, body) }()
	<-accepted
}

// Good: the direct path — classified, its result journaled durably,
// then the reply written: the result record is the batch's journal entry.
func handleDirectGood(w http.ResponseWriter, l *ledger, id string, body []byte) {
	resp := classify(body)
	reply, err := l.Result(id, []VerdictRecord{{File: id}})
	if err != nil {
		resp = response{status: http.StatusInternalServerError}
	}
	w.WriteHeader(resp.status)
	w.Write(reply)
}

// Bad: the direct path writing its reply before its Result is durable;
// a crash between the two answers a batch the journal never held.
func handleDirectBad(w http.ResponseWriter, l *ledger, id string, body []byte) {
	resp := classify(body)
	w.Write(resp.body) // want `http response Write happens before the batch's journal record`
	l.Result(id, []VerdictRecord{{File: id}})
}

// Bad: the 200 escapes before the batch is durable; a crash between
// the two acknowledges a batch the ledger never heard of.
func handleBad(w http.ResponseWriter, l *ledger, id string, body []byte) {
	w.WriteHeader(http.StatusOK) // want `http response WriteHeader happens before the batch's journal record`
	w.Write(body)                // want `http response Write happens before the batch's journal record`
	l.AcceptWire(id, body)
}

// Bad: a verdict escaping on a channel before the journal accept is
// the same lost-batch window in the worker-pool shape.
func pipelineBad(out chan VerdictRecord, j *wal, id string, body []byte) {
	out <- VerdictRecord{File: id} // want `verdict channel send happens before the batch's journal record`
	j.AppendAsyncFunc(id, 1, func(dst []byte) []byte { return append(dst, body...) })
}

// Good: a handoff import journals the chunk before the ack escapes —
// the ack is a transfer of authority the source acts on.
func handleImportGood(w http.ResponseWriter, l *ledger, chunk []byte) {
	if err := l.ImportChunk(chunk); err != nil {
		http.Error(w, "import failed", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// Bad: the import ack escapes before the chunk is journaled; the
// source deletes its copy and a crash here loses the range entirely.
func handleImportBad(w http.ResponseWriter, l *ledger, chunk []byte) {
	w.WriteHeader(http.StatusOK) // want `http response WriteHeader happens before the batch's journal record`
	l.ImportChunk(chunk)
}

// Fine: a pure responder never journals, so ordering does not apply
// (rejection paths respond without accepting).
func reject(w http.ResponseWriter) {
	w.WriteHeader(http.StatusBadRequest)
	w.Write([]byte("malformed"))
}

// Fine: a pure journaling helper writes no response.
func persist(l *ledger, id string, body []byte) error {
	return l.AcceptWire(id, body)
}
