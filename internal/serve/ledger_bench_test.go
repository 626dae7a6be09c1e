package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// benchRetention is the repo benchmark's pinned -result-retention: the
// state every compaction rewrites and every restart reloads is this
// many replies.
const benchRetention = 2048

// benchLedgerShards is the repo benchmark's pinned -journal-shards.
const benchLedgerShards = 2

// fillBenchLedger opens a ledger in dir and completes benchRetention
// batches of batch events each — the engine's real verdicts for replay
// events, so the reply bodies have the size and shape a node retains —
// under IDs shaped like serve.Client's. Compaction is left to the caller.
func fillBenchLedger(b *testing.B, dir string, batch int) *Ledger {
	b.Helper()
	f := sharedFixture(b)
	verdicts, err := newTestEngine(b, f, EngineConfig{}).ClassifyBatch(context.Background(), f.replay[:batch])
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := OpenLedger(LedgerOptions{
		Journal: journal.Options{Dir: dir}, Shards: benchLedgerShards,
		MaxResults: benchRetention, CompactBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRetention; i++ {
		if _, err := l.Result(benchID(i), verdicts); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

func benchID(i int) string { return fmt.Sprintf("loadgen-w0-%06d-%08x", i, uint32(i)*2654435761) }

// BenchmarkLedgerCompact times one compaction of a full retention
// window of 64- and 256-event replies (ROADMAP perf item: "compaction
// pause"). Besides ms per compaction and B/op it reports MB-written,
// the journal bytes the compaction appended, and stall-ms: the longest
// a writer waited for one tiny append on any shard while the compaction
// ran — how long the shard write locks were held, as the requests
// queued behind them see it.
func BenchmarkLedgerCompact(b *testing.B) {
	for _, batch := range []int{64, 256} {
		b.Run(fmt.Sprintf("%dx%d", benchRetention, batch), func(b *testing.B) {
			l := fillBenchLedger(b, b.TempDir(), batch)
			defer l.Close()
			if err := l.Compact(); err != nil { // the steady state: a log that opens with a rewrite
				b.Fatal(err)
			}

			// One prober per shard: an append every 100µs, the slowest one
			// remembered. The records are results of IDs the ledger never
			// holds, so no compaction carries them along.
			var stall [benchLedgerShards]atomic.Int64
			stop := make(chan struct{})
			var probers sync.WaitGroup
			for s := 0; s < benchLedgerShards; s++ {
				key := ""
				for k := 0; journal.ShardIndex(key, benchLedgerShards) != s; k++ {
					key = fmt.Sprintf("probe-%d", k)
				}
				probers.Add(1)
				go func(s int, key string) {
					defer probers.Done()
					for {
						select {
						case <-stop:
							return
						case <-time.After(100 * time.Microsecond):
						}
						t0 := time.Now()
						err := l.j.AppendAsyncFunc(key, recResult, func(dst []byte) []byte { return appendPayload(dst, key, "") })
						if err != nil {
							b.Error(err)
							return
						}
						if d := int64(time.Since(t0)); d > stall[s].Load() {
							stall[s].Store(d)
						}
					}
				}(s, key)
			}

			var stalled time.Duration
			bytes0 := l.Stats().Bytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range stall {
					stall[s].Store(0)
				}
				if err := l.Compact(); err != nil {
					b.Fatal(err)
				}
				worst := int64(0)
				for s := range stall {
					worst = max(worst, stall[s].Load())
				}
				stalled += time.Duration(worst)
			}
			b.StopTimer()
			close(stop)
			probers.Wait()
			if got := l.Stats().Compactions; got != uint64(b.N)+1 {
				b.Fatalf("%d compactions ran, want %d", got, b.N+1)
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/compaction")
			b.ReportMetric(float64(stalled.Microseconds())/1e3/float64(b.N), "stall-ms")
			b.ReportMetric(float64(l.Stats().Bytes-bytes0)/1e6/float64(b.N), "MB-written")
		})
	}
}

// BenchmarkOpenLedger times a restart onto the same states, compacted:
// what a node pays between exec and its first answer (ROADMAP perf
// item; bench's ledger.recover_ms).
func BenchmarkOpenLedger(b *testing.B) {
	for _, batch := range []int{64, 256} {
		b.Run(fmt.Sprintf("%dx%d", benchRetention, batch), func(b *testing.B) {
			dir := b.TempDir()
			l := fillBenchLedger(b, dir, batch)
			if err := l.Compact(); err != nil {
				b.Fatal(err)
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			opts := LedgerOptions{Journal: journal.Options{Dir: dir}, MaxResults: benchRetention, CompactBytes: -1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, rec, err := OpenLedger(opts)
				if err != nil {
					b.Fatal(err)
				}
				if rec.Results != benchRetention {
					b.Fatalf("recovered %d results, want %d", rec.Results, benchRetention)
				}
				b.StopTimer()
				l.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/open")
		})
	}
}

// BenchmarkLookup times the dedup lookup every identified request
// starts with (ROADMAP perf item: "Ledger dedup lookup"), on a full
// retention window: hit is a retransmit of a retained ID, miss a new
// one.
func BenchmarkLookup(b *testing.B) {
	l := fillBenchLedger(b, b.TempDir(), 64)
	defer l.Close()
	ids := make([]string, benchRetention)
	for i := range ids {
		ids[i] = benchID(i)
	}
	for _, c := range []struct {
		name string
		id   func(i int) string
	}{
		{"hit", func(i int) string { return ids[i%benchRetention] }},
		{"miss", func(i int) string { return ids[i%benchRetention][1:] }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := l.Lookup(c.id(i)); ok != (c.name == "hit") {
					b.Fatalf("Lookup(%s) = %v", c.id(i), ok)
				}
			}
		})
	}
}

// BenchmarkAcceptWire times the durable accept of a 64-event batch —
// what stands between a journaled request and its reply besides
// classification — on the repo benchmark's two journal shards, one
// caller, every ID new. AcceptWire is one call, so the two halves are
// measured on twin records: append-ns is the same record through the
// journal's async append (ledger install aside: render, frame, write),
// timed on its own run of b.N records, and wait-ns is what AcceptWire
// takes beyond that — the fsync its caller leads and the bookkeeping
// around it. fsyncs/op stays at 1 with a single caller.
func BenchmarkAcceptWire(b *testing.B) {
	f := sharedFixture(b)
	events := f.replay[:64]
	raw, err := marshalEvents(events)
	if err != nil {
		b.Fatal(err)
	}
	body := string(raw)
	l, _, err := OpenLedger(LedgerOptions{
		Journal: journal.Options{Dir: b.TempDir()}, Shards: benchLedgerShards,
		MaxResults: benchRetention, CompactBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ids := make([]string, 2*b.N)
	for i := range ids {
		ids[i] = benchID(i)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	start := time.Now()
	for _, id := range ids[:b.N] {
		if err := l.j.AppendAsyncFunc(id, recAccept, func(dst []byte) []byte { return appendPayload(dst, id, body) }); err != nil {
			b.Fatal(err)
		}
	}
	appendNS := time.Since(start)
	if err := l.j.Sync(); err != nil { // the accepts below pay for their own bytes only
		b.Fatal(err)
	}
	syncs := l.Stats().Syncs
	b.ResetTimer()
	for _, id := range ids[b.N:] {
		if err := l.AcceptWire(id, events, body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(appendNS.Nanoseconds())/float64(b.N), "append-ns")
	b.ReportMetric(float64((b.Elapsed()-appendNS).Nanoseconds())/float64(b.N), "wait-ns")
	b.ReportMetric(float64(l.Stats().Syncs-syncs)/float64(b.N), "fsyncs/op")
}
