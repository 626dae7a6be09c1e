//go:build linux

package journal

import "syscall"

// fder is a File that exposes its descriptor: *os.File does, the
// fault-injection wrappers in internal/faults do not.
type fder interface{ Fd() uintptr }

// datasync flushes f's data (and the metadata needed to retrieve it,
// i.e. the file size — fdatasync's contract) without forcing the inode
// timestamp update a full fsync pays for. Appends and the commit path
// only ever need the data and the size, and on ext4 the saved metadata
// journal commit is worth ~15% of the sync latency per group commit.
// Files that don't expose a descriptor keep their own Sync semantics.
func datasync(f File) error {
	ff, ok := f.(fder)
	if !ok {
		return f.Sync()
	}
	for {
		if err := syscall.Fdatasync(int(ff.Fd())); err != syscall.EINTR {
			return err
		}
	}
}

// preallocate reserves what a segment lacks of size bytes, so the file
// has its final size before the first record: an append into reserved
// space changes no size, and the fdatasync after it has no inode update
// to commit beside the data (DESIGN.md §15 has the measurement). The
// reserved space reads as zeros, which recovery takes for the end of the
// segment. Best-effort: without a descriptor, or where the filesystem
// refuses, the segment grows as it is appended to, as it always did.
func preallocate(f File, size int64) {
	if ff, ok := f.(fder); ok {
		for syscall.Fallocate(int(ff.Fd()), 0, 0, size) == syscall.EINTR {
		}
	}
}

// trim cuts a segment being sealed down to the size bytes written to it,
// before the fsync that seals it. Not best-effort: a recycled segment's
// old bytes left behind a sealed one would end its shard's replay there.
func trim(f File, size int64) error {
	ff, ok := f.(fder)
	if !ok {
		return nil
	}
	for {
		if err := syscall.Ftruncate(int(ff.Fd()), size); err != syscall.EINTR {
			return err
		}
	}
}
