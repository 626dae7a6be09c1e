package export_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/synth"
)

// The codec's layer benchmarks (make bench-layers): one op is one
// 1,024-event batch, bulk_stateless's request, over the serving world's
// replay month. They live in the external test package because
// experiments imports export.

const benchBatch = 1024

var (
	replayOnce sync.Once
	replay     []dataset.DownloadEvent
	replayErr  error
)

func replayBatch(tb testing.TB) []dataset.DownloadEvent {
	tb.Helper()
	replayOnce.Do(func() {
		var w *experiments.ServingWorld
		if w, replayErr = experiments.BootServingWorld(synth.DefaultConfig(7, 0.004), 0.001); replayErr == nil {
			replay = w.Replay
		}
	})
	if replayErr != nil {
		tb.Fatal(replayErr)
	}
	if len(replay) < benchBatch {
		tb.Fatalf("replay month has %d events, need %d", len(replay), benchBatch)
	}
	return replay[:benchBatch]
}

// codecVariants are the three ways a line leaves ParseEventLine:
// canonical (the strict stamp codec), offset-stamp (a canonical line
// whose stamp takes time.Parse, re-format and compare) and
// escaped-fallback (encoding/json, for a URL with an escape in it).
var codecVariants = []struct {
	name   string
	mutate func(*dataset.DownloadEvent)
}{
	{"canonical", func(*dataset.DownloadEvent) {}},
	{"offset-stamp", func(ev *dataset.DownloadEvent) { ev.Time = ev.Time.In(time.FixedZone("", 330*60)) }},
	{"escaped-fallback", func(ev *dataset.DownloadEvent) { ev.URL += `?q="é"` }},
}

func variantLines(tb testing.TB, mutate func(*dataset.DownloadEvent)) []string {
	tb.Helper()
	var body []byte
	for _, ev := range replayBatch(tb) {
		mutate(&ev)
		var err error
		if body, err = export.AppendEventLine(body, &ev); err != nil {
			tb.Fatal(err)
		}
		body = append(body, '\n')
	}
	return strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
}

// reportPerEvent reports the timed loop's cost per event.
func reportPerEvent(b *testing.B, ms0 *runtime.MemStats) {
	b.StopTimer()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	events := float64(b.N * benchBatch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
}

func BenchmarkParseEventLine(b *testing.B) {
	for _, v := range codecVariants {
		b.Run(v.name, func(b *testing.B) {
			lines := variantLines(b, v.mutate)
			events := make([]dataset.DownloadEvent, len(lines))
			var ms0 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, line := range lines {
					if err := export.ParseEventLineInto(&events[j], line); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerEvent(b, &ms0)
		})
	}
}

func BenchmarkAppendEventLine(b *testing.B) {
	events := replayBatch(b)
	body := make([]byte, 0, 512*benchBatch)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = body[:0]
		for j := range events {
			var err error
			if body, err = export.AppendEventLine(body, &events[j]); err != nil {
				b.Fatal(err)
			}
			body = append(body, '\n')
		}
	}
	reportPerEvent(b, &ms0)
}

// TestCanonicalCodecAllocates0 holds the canonical paths to no heap
// allocation at all. (An offset stamp costs three per event: time.Parse
// builds a FixedZone for it.)
func TestCanonicalCodecAllocates0(t *testing.T) {
	events := replayBatch(t)
	body := make([]byte, 0, 512*benchBatch)
	if n := testing.AllocsPerRun(10, func() {
		body = body[:0]
		for j := range events {
			body, _ = export.AppendEventLine(body, &events[j])
		}
	}); n != 0 {
		t.Errorf("AppendEventLine: %v allocs per %d-event batch, want 0", n, benchBatch)
	}
	lines := variantLines(t, codecVariants[0].mutate)
	parsed := make([]dataset.DownloadEvent, len(lines))
	if n := testing.AllocsPerRun(10, func() {
		for j, line := range lines {
			if err := export.ParseEventLineInto(&parsed[j], line); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("ParseEventLine: %v allocs per %d-event batch, want 0", n, benchBatch)
	}
}
