// Package lock is the dependency side of the interprocedural seeds:
// its lock facts and context rooting reach the serve package only
// through the cross-package fact set the loader builds.
// Analyzed on its own it is clean — every finding it enables is
// reported at the serve call sites.
package lock

import (
	"context"
	"sync"
	"time"
)

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

// Refresh roots its own context and accepts none — calling it from a
// request path drops the caller's deadline.
func Refresh() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	<-ctx.Done()
	return ctx.Err()
}
