// Package lock is the dependency side of the interprocedural seeds:
// its lock facts reach the serve package only through the
// cross-package fact set the loader builds. Analyzed on its own it is
// clean — every finding it enables is reported at the serve call sites.
package lock

import "sync"

var mu sync.Mutex

// Grab acquires the package lock briefly.
func Grab() {
	mu.Lock()
	mu.Unlock()
}

// Nested runs f while holding the package lock.
func Nested(f func()) {
	mu.Lock()
	f()
	mu.Unlock()
}
