// Package serve is the journalorder negative fixture: an in-scope
// package whose handlers journal before any response bytes leave, or
// never journal at all (pure rejection paths).
package serve

import "net/http"

type ledger struct{}

func (l *ledger) AcceptWire(batch []byte) error { return nil }

// handleSubmit journals first, then acknowledges.
func handleSubmit(l *ledger, w http.ResponseWriter, r *http.Request) {
	batch := []byte("batch")
	if err := l.AcceptWire(batch); err != nil {
		http.Error(w, "journal failed", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	w.Write([]byte("ok"))
}

// handleReject never journals: responding early on a malformed request
// is not a durability path.
func handleReject(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusBadRequest)
	w.Write([]byte("malformed"))
}
