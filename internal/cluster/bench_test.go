package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/leaktest"
)

// BenchmarkForward is one 64-event JSON batch (21 KB) through
// Router.Forward to a replica over loopback that reads it and answers
// 8 KB without looking: the hop and nothing else. link is what a router
// runs on; nethttp is the same router handed an http.Transport, what it
// ran on before. dials/op says whether the connection was kept.
func BenchmarkForward(b *testing.B) {
	reply := bytes.Repeat([]byte("v"), 8<<10)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/classify" {
			io.WriteString(w, `{"status":"ok","generation":1}`)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.Write(reply)
	}))
	defer replica.Close()
	body := bytes.Repeat([]byte(strings.Repeat("e", 329)+"\n"), 64) // an event line is ~330 bytes

	for _, side := range []struct {
		name string
		over func(*leaktest.Dials) func(*Options)
	}{
		{"link", overLink},
		{"nethttp", func(d *leaktest.Dials) func(*Options) {
			return func(o *Options) { o.HTTPClient = &http.Client{Transport: &http.Transport{DialContext: d.Dial}} }
		}},
	} {
		b.Run(side.name, func(b *testing.B) {
			var d leaktest.Dials
			opts := Options{Replicas: []string{replica.Listener.Addr().String()}}
			side.over(&d)(&opts)
			rt, err := NewRouter(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			ids := make([]string, b.N)
			for i := range ids {
				ids[i] = fmt.Sprintf("req-%08d", i)
			}
			dialed := d.Total.Load()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for _, id := range ids {
				data, err := rt.Forward(context.Background(), id, body, 0)
				if err != nil || len(data) != len(reply) {
					b.Fatalf("forward = %d bytes, %v", len(data), err)
				}
			}
			b.ReportMetric(float64(d.Total.Load()-dialed)/float64(b.N), "dials/op")
		})
	}
}

// BenchmarkRingOwner is the ring pick a forward starts with, on the
// three-replica ring the routed workload runs.
func BenchmarkRingOwner(b *testing.B) {
	ring, err := NewRing([]string{"127.0.0.1:8787", "127.0.0.1:8788", "127.0.0.1:8789"}, DefaultVirtualNodes)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("req-%06d-%08x", i, i*2654435761)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if ring.Owner(ids[i%len(ids)]) == "" {
			b.Fatal("no owner")
		}
	}
}
