// Package serve seeds one bug per interprocedural analyzer class: a
// cross-package lock-order cycle (both directions visible only through
// the lock package's facts), a leaked goroutine, a dropped request
// context, and a misspelled metric. The longtailvet integration test
// asserts each is caught by the built binary.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"badmod/lock"
)

var mu sync.Mutex

// Flow1 acquires mu, then calls into lock: mu -> lock.mu.
func Flow1() {
	mu.Lock()
	lock.Grab()
	mu.Unlock()
}

// Flow2 hands lock a closure acquiring mu under lock.mu: the reverse
// order, closing the cycle.
func Flow2() {
	lock.Nested(func() {
		mu.Lock()
		mu.Unlock()
	})
}

// Spawn leaks a goroutine: an unexitable loop with no signal.
func Spawn() {
	go func() {
		n := 0
		for {
			n++
		}
	}()
}

// Handler severs and then drops the request's context, and emits a
// camel-case metric.
func Handler(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background()
	_ = ctx
	if err := lock.Refresh(); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	fmt.Fprintf(w, "longtail_Served_Total %d\n", 1)
	//lint:allow metricdrift legacy dashboard still scrapes the old name
	fmt.Fprintf(w, "longtail_Legacy_Rows %d\n", 1)
}
