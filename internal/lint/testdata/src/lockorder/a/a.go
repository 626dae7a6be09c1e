// Package a is the lockorder positive fixture: One establishes
// muA -> muB through a call made under muA, Two establishes
// muB -> muA through a closure run under b's lock — a cross-package
// lock-order cycle. Dbl self-deadlocks.
package a

import (
	"sync"

	"repro/internal/lint/testdata/src/lockorder/b"
)

var muA sync.Mutex

// One acquires muA, then calls into b, which acquires muB: muA -> muB.
func One() {
	muA.Lock()
	b.Do() // want `lock order cycle`
	muA.Unlock()
}

// Two hands b a closure that acquires muA; b runs it under muB:
// muB -> muA, closing the cycle.
func Two() {
	b.Take(func() { // want `lock order cycle`
		muA.Lock()
		muA.Unlock()
	})
}

// EarlyOut is the ledger's accept shape: the guard's Unlock belongs to
// the path that returns, so the call below it still runs under muA.
func EarlyOut(done bool) {
	muA.Lock()
	if done {
		muA.Unlock()
		return
	}
	b.Do() // want `lock order cycle`
	muA.Unlock()
}

// Counter carries its own lock.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Dbl re-locks the same mutex on the same path.
func Dbl(c *Counter) {
	c.mu.Lock()
	c.mu.Lock() // want `already held`
	c.mu.Unlock()
	c.mu.Unlock()
}
