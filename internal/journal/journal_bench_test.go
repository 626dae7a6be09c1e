package journal

import (
	"fmt"
	"os"
	"testing"
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
// fsyncs/op counts the fsyncs behind one append, rotations included.
func BenchmarkAppend(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		for _, shards := range []int{1, 2} {
			for _, size := range []int{3 << 10, 21 << 10} {
				name := fmt.Sprintf("%s/%dshards/%dKB", mode, shards, size>>10)
				b.Run(name, func(b *testing.B) { benchAppend(b, mode == "sync", shards, size, nil) })
				if mode == "sync" {
					b.Run(name+"/noprealloc", func(b *testing.B) { benchAppend(b, true, shards, size, openNoFd) })
				}
			}
		}
	}
}

func benchAppend(b *testing.B, durable bool, shards, size int, openFile func(string) (File, error)) {
	s, _, err := OpenSharded(Options{Dir: b.TempDir(), OpenFile: openFile}, shards)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%23)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("req-%03d", i)
	}
	write := s.AppendAsyncFunc
	if durable {
		write = s.AppendFunc
	}
	build := func(dst []byte) []byte { return append(dst, payload...) }
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(keys[i%len(keys)], 1, build); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Syncs)/float64(b.N), "fsyncs/op")
}
