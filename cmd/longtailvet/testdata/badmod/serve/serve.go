// Package serve seeds one bug per interprocedural analyzer class: a
// cross-package lock-order cycle (both directions visible only through
// the lock package's facts) and a misspelled metric. The longtailvet
// integration test asserts each is caught by the built binary.
package serve

import (
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

// Handler emits a camel-case metric.
func Handler(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "longtail_Served_Total %d\n", 1)
	//lint:allow metricdrift legacy dashboard still scrapes the old name
	fmt.Fprintf(w, "longtail_Legacy_Rows %d\n", 1)
}
