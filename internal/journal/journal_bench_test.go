package journal

import (
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"
)

// noFdFile is an *os.File with its descriptor hidden: the journal can
// neither preallocate nor trim it. Its Sync is the fdatasync an
// *os.File gets, so hiding the descriptor switches preallocation off
// and nothing else.
type noFdFile struct{ f *os.File }

func (n noFdFile) Write(p []byte) (int, error) { return n.f.Write(p) }
func (n noFdFile) Sync() error                 { return datasync(n.f) }
func (n noFdFile) Close() error                { return n.f.Close() }

func openNoFd(path string) (File, error) {
	f, err := os.Create(path)
	return noFdFile{f}, err
}

// BenchmarkAppend is the raw commit path on real files, one appender:
// a durable append (write + the fdatasync it leads) and an async one
// (write alone), over one and two shards, at the two record sizes a
// 64-event request journals — its accept record carries the batch's
// ~21 KB of event lines, its result record the ~3 KB of verdict lines.
// sync/…/noprealloc is the same append into a segment that grows as it
// is written: the difference is what preallocation saves per commit.
// sync/…/recycled is the same append into segments taken from the pool,
// on a journal that compacts itself as a ledger does (cycle): the
// difference is what a recycled segment saves per commit, less what the
// compactions cost. fsyncs/op counts the fsyncs behind one append,
// rotations and compactions included.
func BenchmarkAppend(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		for _, shards := range []int{1, 2} {
			for _, size := range []int{3 << 10, 21 << 10} {
				name := fmt.Sprintf("%s/%dshards/%dKB", mode, shards, size>>10)
				b.Run(name, func(b *testing.B) { benchAppend(b, mode == "sync", shards, size, nil, false) })
				if mode == "sync" {
					b.Run(name+"/noprealloc", func(b *testing.B) { benchAppend(b, true, shards, size, openNoFd, false) })
					b.Run(name+"/recycled", func(b *testing.B) { benchAppend(b, true, shards, size, nil, true) })
				}
			}
		}
	}
}

func benchAppend(b *testing.B, durable bool, shards, size int, openFile func(string) (File, error), recycled bool) {
	s, _, err := OpenSharded(Options{Dir: b.TempDir(), OpenFile: openFile}, shards)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%23)
	}
	keys := requestKeys()
	write := s.AppendAsyncFunc
	if durable {
		write = s.AppendFunc
	}
	build := func(dst []byte) []byte { return append(dst, payload...) }
	c := cycle{s: s}
	if recycled {
		c.warm(b, func(i int) error { return s.AppendAsyncFunc(keys[i%len(keys)], 1, build) })
	}
	syncs := s.Stats().Syncs
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(keys[i%len(keys)], 1, build); err != nil {
			b.Fatal(err)
		}
		if recycled {
			c.step(b)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Syncs-syncs)/float64(b.N), "fsyncs/op")
}

// BenchmarkRequestCycle is the journal's part of one 64-event request
// of the paper's traffic on the daemon's two shards: the accept record
// (21 KB) appended durably and the result record (8 KB) asynchronously
// under the request's key, on a journal that compacts itself as a
// ledger does (cycle). recycled takes its segments from the pool;
// created deletes the pool after every compaction, so that each segment
// is created and reserved as before recycling, and is otherwise the
// same. Beside ns/op: the process's CPU time per request, system calls
// included, and fsyncs/op.
func BenchmarkRequestCycle(b *testing.B) {
	for _, mode := range []string{"created", "recycled"} {
		b.Run(mode, func(b *testing.B) {
			s, _, err := OpenSharded(Options{Dir: b.TempDir()}, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			accept, result := make([]byte, 21<<10), make([]byte, 8<<10)
			for i := range accept {
				accept[i] = byte('a' + i%23)
			}
			copy(result, accept)
			keys := requestKeys()
			c := cycle{s: s, drop: mode == "created"}
			c.warm(b, func(i int) error {
				return s.AppendAsyncFunc(keys[i%len(keys)], 1, func(dst []byte) []byte { return append(dst, accept...) })
			})
			syncs, cpu := s.Stats().Syncs, cpuTime()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := keys[i%len(keys)]
				if err := s.AppendFunc(key, 1, func(dst []byte) []byte { return append(dst, accept...) }); err != nil {
					b.Fatal(err)
				}
				if err := s.AppendAsyncFunc(key, 2, func(dst []byte) []byte { return append(dst, result...) }); err != nil {
					b.Fatal(err)
				}
				c.step(b)
			}
			b.StopTimer()
			b.ReportMetric(float64((cpuTime()-cpu).Microseconds())/float64(b.N), "cpu-us/op")
			b.ReportMetric(float64(s.Stats().Syncs-syncs)/float64(b.N), "fsyncs/op")
		})
	}
}

// requestKeys are the keys a benchmark's appends cycle through.
func requestKeys() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("req-%03d", i)
	}
	return keys
}

// cycle drives a benchmark journal through compactions the way a ledger
// drives its own, at two segments a shard rather than the ledger's
// bytes threshold, so that a benchmark reaches them: each compaction
// retires what the log took since the last one, and the rotations up to
// the next take those files back. With drop the pool is deleted after
// every compaction instead, and every segment is created.
type cycle struct {
	s    *Sharded
	drop bool
}

// step compacts — rewriting nothing — once the live log holds two
// segments a shard.
func (c cycle) step(b *testing.B) {
	if c.s.LiveBytes() < 2*c.s.opts.segmentBytes()*int64(len(c.s.shards)) {
		return
	}
	if _, err := rewrite(c.s); err != nil {
		b.Fatal(err)
	}
	if !c.drop {
		return
	}
	for _, w := range c.s.shards {
		w.mu.Lock()
		for _, idx := range w.pool {
			os.Remove(w.poolPath(idx))
		}
		w.pool = nil
		w.mu.Unlock()
	}
}

// warm appends through write, untimed, until the journal has compacted
// once and every shard has rotated since: the timed appends then begin
// in a segment that rotation brought from the pool, or with drop
// created.
func (c cycle) warm(b *testing.B, write func(i int) error) {
	var since []uint64 // each shard's rotations at the first compaction
	for i := 0; ; i++ {
		if err := write(i); err != nil {
			b.Fatal(err)
		}
		c.step(b)
		st := c.s.ShardStats()
		if since == nil {
			if c.s.Stats().Compactions > 0 {
				since = make([]uint64, len(st))
				for si := range st {
					since[si] = st[si].Rotations
				}
			}
			continue
		}
		rotated := 0
		for si := range st {
			if st[si].Rotations > since[si] {
				rotated++
			}
		}
		if rotated == len(st) {
			return
		}
	}
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
