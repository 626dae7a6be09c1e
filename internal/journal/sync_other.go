//go:build !linux

package journal

// datasync falls back to a full fsync on platforms without a usable
// fdatasync (see sync_linux.go for the fast path).
func datasync(f File) error { return f.Sync() }

// preallocate and trim do nothing where there is no fallocate: segments
// grow as they are appended to.
func preallocate(File, int64) {}
func trim(File, int64)        {}
