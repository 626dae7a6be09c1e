// Package clean is the lockorder negative fixture: every path that
// holds both locks acquires them in the same order, sequential
// lock/unlock pairs produce no edges (the lexical model), and shared
// RLock pairs are not double locks.
package clean

import (
	"sync"

	"repro/internal/lint/testdata/src/lockorder/b"
)

var mu sync.Mutex

var rw sync.RWMutex

// Both nests consistently: mu before muB, everywhere.
func Both() {
	mu.Lock()
	b.Do()
	mu.Unlock()
}

// Deferred keeps mu held to the end of the body; still mu -> muB.
func Deferred() {
	mu.Lock()
	defer mu.Unlock()
	b.Do()
}

// UnlockThen releases before calling into b: no edge in either
// direction, so no cycle with Both.
func UnlockThen() {
	mu.Lock()
	mu.Unlock()
	b.Do()
}

// GuardThenRelock releases on both paths; the guard's return hands mu
// back only to the code between the guard and the second Unlock.
func GuardThenRelock(skip bool) {
	mu.Lock()
	if skip {
		mu.Unlock()
		return
	}
	mu.Unlock()
	mu.Lock()
	mu.Unlock()
}

// PlainClosure hands b a closure that takes no locks.
func PlainClosure() {
	done := false
	b.Take(func() { done = true })
	_ = done
}

// SharedReaders re-enters a read lock: legal for RWMutex readers.
func SharedReaders() {
	rw.RLock()
	rw.RLock()
	rw.RUnlock()
	rw.RUnlock()
}
