// Package leaktest is what the tests of goroutine-owning types wait
// with: a check that a Close left none of its goroutines behind, two
// waits that fail the test by name after a deadline, so that a hang is
// one test's failure in seconds and not the package's timeout, and a
// dialer that counts the connections a Close left open.
package leaktest

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Check, called first in a test, fails it for every goroutine started
// after the call that still runs code of this module two seconds into
// the test's cleanup: what a Close that neither stops nor waits for its
// goroutines leaves behind.
func Check(t testing.TB) {
	before := stacks()
	t.Cleanup(func() {
		var leaked []string
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); <-time.After(5 * time.Millisecond) {
			leaked = leaked[:0]
			for id, stack := range stacks() {
				if _, old := before[id]; !old && strings.Contains(stack, "repro/") {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
		}
		t.Errorf("%d goroutines outlived the test:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// stacks returns every goroutine's stack dump under its "goroutine N".
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		id, _, _ := strings.Cut(g, " [")
		out[id] = g
	}
	return out
}

// Within fails the test when f has not returned after d.
func Within(t testing.TB, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s has not returned after %v", what, d)
	}
}

// Until fails the test when cond, polled every millisecond, has not
// come true after d.
func Until(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); <-time.After(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not so after %v", what, d)
		}
	}
}

// Dials counts the TCP connections its Dial opened and the ones not yet
// closed: what a test hands a connection-owning type as its dialer.
type Dials struct{ Total, Open atomic.Int64 }

// Dial dials like a zero net.Dialer and counts.
func (d *Dials) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := new(net.Dialer).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.Total.Add(1)
	d.Open.Add(1)
	return &countedConn{Conn: c, d: d}, nil
}

type countedConn struct {
	net.Conn
	d    *Dials
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.d.Open.Add(-1) })
	return c.Conn.Close()
}
