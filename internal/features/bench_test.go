package features

import (
	"sync"
	"sync/atomic"
	"testing"

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

// BenchmarkVector times feature extraction against a frozen store the
// size of the daemons' default corpus, from at least four goroutines at
// once — the engine's workers. Per event it is two file-metadata
// lookups and one rank lookup; on a frozen store none of them may take
// a lock, so ns/op must not grow with the goroutine count.
func BenchmarkVector(b *testing.B) {
	res, err := corpus()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := NewExtractor(res.Store, res.Oracle)
	if err != nil {
		b.Fatal(err)
	}
	events := res.Store.Events()
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
}
