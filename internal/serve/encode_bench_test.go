package serve

import (
	"context"
	"runtime"
	"testing"
)

// benchVerdicts classifies the first 1,024 replay events: the verdicts
// of one bulk_stateless reply.
func benchVerdicts(tb testing.TB) []VerdictRecord {
	tb.Helper()
	f := sharedFixture(tb)
	verdicts, err := newTestEngine(tb, f, EngineConfig{}).ClassifyBatch(context.Background(), f.replay[:1024])
	if err != nil {
		tb.Fatal(err)
	}
	return verdicts
}

// BenchmarkVerdictBody times the verdict side of the line codec on one
// 1,024-verdict reply: append is what the handler (and the ledger, for
// the body it journals) renders per request, parse what a client, and a
// node answering a binary retransmit from its ledger, reads back.
func BenchmarkVerdictBody(b *testing.B) {
	verdicts := benchVerdicts(b)
	body := appendVerdictBody(make([]byte, 0, verdictBodySize(verdicts)), verdicts)
	for _, bc := range []struct {
		name string
		op   func()
	}{
		{"append", func() { body = appendVerdictBody(body[:0], verdicts) }},
		{"parse", func() {
			if _, err := parseVerdictBody(body); err != nil {
				b.Fatal(err)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			events := float64(b.N * len(verdicts))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
		})
	}
}

// TestVerdictBodyAppendAllocates0: rendering into a buffer of
// verdictBodySize allocates nothing. (Parsing allocates what it
// returns: the slice, one string under every record, and each record's
// matched-rule list.)
func TestVerdictBodyAppendAllocates0(t *testing.T) {
	verdicts := benchVerdicts(t)
	body := make([]byte, 0, verdictBodySize(verdicts))
	if n := testing.AllocsPerRun(10, func() { body = appendVerdictBody(body[:0], verdicts) }); n != 0 {
		t.Errorf("appendVerdictBody: %v allocs per %d-verdict reply, want 0", n, len(verdicts))
	}
}
