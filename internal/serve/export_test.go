package serve

import (
	"net/http"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/journal"
)

// DeferringNode is a journaled node's handler that defers every batch
// with an ID, its ledger, and the events of the shared fixture's replay.
func DeferringNode(t testing.TB) (http.Handler, *Ledger, []dataset.DownloadEvent) {
	f := sharedFixture(t)
	l, _, err := OpenLedger(LedgerOptions{Journal: journal.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv, err := NewServer(newTestEngine(t, f, EngineConfig{}), classify.Reject, WithLedger(l))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.deferHighWater = 0
	return srv.Handler(), l, f.replay
}

// ClusterWorld is the shared fixture as a chaos cluster's world: what
// every node serves with, the replay, and the offline reference a first
// reply is held to.
func ClusterWorld(t testing.TB) (*features.Extractor, *classify.Classifier, []dataset.DownloadEvent, func(*classify.Classifier, *dataset.DownloadEvent) (VerdictRecord, error)) {
	f := sharedFixture(t)
	offline := func(clf *classify.Classifier, ev *dataset.DownloadEvent) (VerdictRecord, error) {
		vec, err := f.ex.Vector(ev)
		if err != nil {
			return VerdictRecord{}, err
		}
		v, matched := clf.ClassifyFile([]features.Instance{{Vector: vec, File: ev.File}})
		return VerdictRecord{Type: "verdict", File: string(ev.File), Verdict: v.String(), Generation: 1, Rules: matched}, nil
	}
	return f.ex, f.clf, f.replay, offline
}

// RefLedger is the reference ledger (refledger_test.go) of one replica
// of the reference cluster (refcluster_test.go), at the default bound.
type RefLedger struct{ m *refLedger }

// NewRefLedger is an empty reference ledger.
func NewRefLedger() *RefLedger {
	return &RefLedger{(&refLedger{max: 65536, shards: 1}).replay(nil)}
}

// Answer is a direct Result of id with reply body whose fsync returned.
func (r *RefLedger) Answer(id, body string) { r.m.result(id, body) }

// Lookup is the reply the reference holds for id.
func (r *RefLedger) Lookup(id string) (string, bool) {
	body, ok := r.m.results[id]
	return body, ok
}

// Export is what /admin/handoff/export answers: every live entry, framed.
func (r *RefLedger) Export() []byte {
	var stream []byte
	for _, e := range r.m.live(nil) {
		stream = journal.AppendFrame(stream, e.kind, appendPayload(nil, e.id, e.body))
	}
	return stream
}

// Import is an acknowledged ImportChunk of chunk.
func (r *RefLedger) Import(t testing.TB, chunk []byte) { r.m.importChunk(decodeChunk(t, chunk)) }

// Diff reports the first way l differs from the reference.
func (r *RefLedger) Diff(l *Ledger) error { return diffLedger(l, r.m) }
