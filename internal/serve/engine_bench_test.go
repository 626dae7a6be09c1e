package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// benchTraffic draws frames for BenchmarkProcessFrame the way the repo
// benchmark draws requests: a fresh key is a corpus (file, process) pair
// under a domain no frame has used yet, a hot key one of the first
// hotKeys distinct corpus keys. Every frame is decoded from a request
// body of its own, as in the /classify handler, so what the memo keeps
// alive after the frame is gone is measurable.
type benchTraffic struct {
	f     *fixture
	hot   []dataset.DownloadEvent
	rng   *rand.Rand
	zipf  *rand.Zipf
	fresh int
}

const hotKeys = 512 // one worker's quarter of resubmit_binary's 2,048

func newBenchTraffic(tb testing.TB) *benchTraffic {
	f := sharedFixture(tb)
	rng := rand.New(rand.NewSource(5))
	return &benchTraffic{
		f: f, hot: distinctKeys(tb, f, hotKeys), rng: rng,
		zipf: rand.NewZipf(rng, 1.2, 1, hotKeys-1),
	}
}

// frame returns n wire-decoded events, each hot with probability
// hotShare; zipf skews the hot draws as resubmit_binary does.
func (bt *benchTraffic) frame(tb testing.TB, n int, hotShare float64, zipf bool) []dataset.DownloadEvent {
	events := make([]dataset.DownloadEvent, n)
	for i := range events {
		switch {
		case bt.rng.Float64() >= hotShare:
			bt.fresh++
			events[i] = bt.f.replay[bt.rng.Intn(len(bt.f.replay))]
			events[i].Domain = fmt.Sprintf("fresh-%d.example", bt.fresh)
		case zipf:
			events[i] = bt.hot[bt.zipf.Uint64()]
		default:
			events[i] = bt.hot[bt.rng.Intn(hotKeys)]
		}
	}
	_, parsed := wireEvents(tb, events)
	return parsed
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkProcessFrame times the engine's per-frame work on one
// worker's state, with no queue, goroutine hop or HTTP around it:
//
//   - fresh: every key new, the paper's long tail and the miss path;
//   - hot: every key already admitted, the hit path;
//   - zipf: 90% Zipf-distributed hot keys, 10% fresh.
//
// Besides ns/event and allocs/event it reports retained-B/event: heap
// still live once a run of frames, their bodies and their verdicts are
// gone — what the worker state pins per event served. fresh must report
// 0 there (one-hit wonders leave nothing behind) and 0 allocs/event
// beyond the matched-rule slices.
func BenchmarkProcessFrame(b *testing.B) {
	for _, mix := range []struct {
		name     string
		hotShare float64
		zipf     bool
	}{{"fresh", 0, false}, {"hot", 1, false}, {"zipf", 0.9, true}} {
		for _, n := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/%d", mix.name, n), func(b *testing.B) {
				bt := newBenchTraffic(b)
				engine := newTestEngine(b, bt.f, EngineConfig{})
				ctx := context.Background()
				ws := newWorkerState()
				// A pool of frames, cycled. Two warm-up passes take every
				// hot key to its third sight; the fresh keys of a pool
				// stay fresh because the state is wiped at each wrap.
				pool := make([][]dataset.DownloadEvent, (1<<14)/n)
				for i := range pool {
					pool[i] = bt.frame(b, n, mix.hotShare, mix.zipf)
				}
				warm := func() {
					for pass := 0; pass < 2 && mix.hotShare > 0; pass++ {
						for i := 0; i < hotKeys; i += n {
							runFrame(engine, ws, ctx, bt.hot[i:min(i+n, hotKeys)])
						}
					}
				}
				warm()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%len(pool) == 0 && i > 0 && mix.hotShare < 1 {
						ws.reset(ws.gen)
						warm()
					}
					runFrame(engine, ws, ctx, pool[i%len(pool)])
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				events := float64(b.N * n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")

				// Retention, on frames the state has not met: each frame is
				// decoded, served and dropped.
				const frames = 32
				ws.reset(ws.gen)
				warm()
				pool = nil
				before := heapAfterGC()
				for i := 0; i < frames; i++ {
					runFrame(engine, ws, ctx, bt.frame(b, n, mix.hotShare, mix.zipf))
				}
				retained := max(int64(heapAfterGC())-int64(before), 0)
				runtime.KeepAlive(ws)
				b.ReportMetric(float64(retained)/float64(frames*n), "retained-B/event")
			})
		}
	}
}

// BenchmarkClassifyBatch sends batches of fresh keys through a 4-shard
// engine, one caller, the way the handler does: admission, framing,
// classification, the verdict slice. At 16 and 64 events the frames (4
// and 16 events) are classified by the caller; at 256 and 1,024 (64 and
// 256) by the workers. The /workers variants hold the two small sizes
// to the worker path too — every shard's lock is taken across Submit —
// so the pair at each size is what inlineFrameEvents decides between:
// the hand-off to a worker and back costs a fixed few microseconds per
// frame, which a 4-event frame never earns back and a 64-event frame
// does as soon as there is a second core to run it on. ns/event and
// allocs/batch are reported beside ns/op.
func BenchmarkClassifyBatch(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, forced := range []bool{false, true} {
			name := fmt.Sprint(n)
			if forced {
				if n/4 > inlineFrameEvents {
					continue // already the workers' frames
				}
				name += "/workers"
			}
			b.Run(name, func(b *testing.B) {
				bt := newBenchTraffic(b)
				engine := newTestEngine(b, bt.f, EngineConfig{Shards: 4, QueueSize: 8192})
				ctx := context.Background()
				pool := make([][]dataset.DownloadEvent, (1<<15)/n)
				for i := range pool {
					pool[i] = bt.frame(b, n, 0, false)
				}
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					events := pool[i%len(pool)]
					if !forced {
						if _, err := engine.ClassifyBatch(ctx, events); err != nil {
							b.Fatal(err)
						}
						continue
					}
					unlock := lockShards(engine)
					pending, err := engine.Submit(ctx, events)
					unlock()
					if err == nil {
						_, err = pending.Wait()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs/batch")
			})
		}
	}
}
