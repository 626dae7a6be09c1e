// Package copylocks is not a longtailvet fixture: it seeds the two copy
// shapes the retired atomicswap analyzer and lockorder's dereference
// check used to flag, and TestCopyLocksVet asserts plain `go vet`
// (tier-1) reports both.
package copylocks

import (
	"sync"
	"sync/atomic"
)

type rules struct{ gen uint64 }

type engine struct {
	rules atomic.Pointer[rules]
	gen   atomic.Uint64
}

// fork copies the hot-swapped pointer: later Stores through e are
// invisible to readers of the copy.
func (e *engine) fork() *rules {
	snapshot := e.rules
	return snapshot.Load()
}

// forkGen copies a plain atomic counter the same way.
func (e *engine) forkGen() uint64 {
	snapshot := e.gen
	return snapshot.Load()
}

type counter struct {
	mu sync.Mutex
	n  int
}

// snapshotCounter copies the counter — and its lock — through a
// dereference: the copy is a distinct lock guarding nothing.
func snapshotCounter(c *counter) int {
	dup := *c
	return dup.n
}
