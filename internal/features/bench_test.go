package features

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// corpus is built once, not once per calibration round of b.N.
var corpus = sync.OnceValues(func() (*synth.Result, error) {
	res, err := synth.Generate(synth.DefaultConfig(42, 0.02))
	if err == nil {
		res.Store.Freeze()
	}
	return res, err
})

// BenchmarkVector times feature extraction against the compiled context
// of a corpus the size of the daemons' default, from at least four
// goroutines at once — the engine's workers. Per event it is two file
// lookups and one rank lookup; none of them may take a lock, so ns/op
// must not grow with the goroutine count.
//
// trace-order walks the corpus as generated, which keeps most lookups
// in cache; shuffled visits the same (file, process, domain) triples in
// a fixed-seed permutation, so every lookup is cold the way fresh-key
// traffic is in a daemon — the case that predicts the traced
// features.vector_ns_per_event. unknown-process and unranked-domain
// are the two defaulted lookups: a miss walks to an empty slot.
func BenchmarkVector(b *testing.B) {
	res, err := corpus()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := NewExtractor(res.Store, res.Oracle)
	if err != nil {
		b.Fatal(err)
	}
	traceOrder := res.Store.Events()
	rewrite := func(edit func(*dataset.DownloadEvent)) []dataset.DownloadEvent {
		out := slices.Clone(traceOrder)
		for i := range out {
			edit(&out[i])
		}
		return out
	}
	shuffled := slices.Clone(traceOrder)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, bc := range []struct {
		name   string
		events []dataset.DownloadEvent
	}{
		{"trace-order", traceOrder},
		{"shuffled", shuffled},
		{"unknown-process", rewrite(func(ev *dataset.DownloadEvent) { ev.Process += "-never-seen" })},
		{"unranked-domain", rewrite(func(ev *dataset.DownloadEvent) { ev.Domain += ".unranked.invalid" })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			events := bc.events
			var failed atomic.Int64
			b.SetParallelism(4)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for i := 0; pb.Next(); i++ {
					if _, err := ex.Vector(&events[i%len(events)]); err != nil {
						failed.Add(1)
					}
				}
			})
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d extractions failed", n)
			}
		})
	}
}

// BenchmarkCompileContext times what NewExtractor does at boot, so the
// work that moved into set-up is a number: ms per compile, and the
// size and worst-case walk of what it builds.
func BenchmarkCompileContext(b *testing.B) {
	res, err := corpus()
	if err != nil {
		b.Fatal(err)
	}
	var ex *Extractor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ex, err = NewExtractor(res.Store, res.Oracle); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N), "ms/compile")
	st := ex.ContextStats()
	b.ReportMetric(float64(st.Bytes), "context-B")
	b.ReportMetric(float64(st.Slots), "slots")
	b.ReportMetric(float64(st.LongestProbe), "longest-probe")
}
