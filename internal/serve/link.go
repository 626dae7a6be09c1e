package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Link is the http.RoundTripper the router speaks to its replicas with:
// HTTP/1.1 over keep-alive connections, the whole exchange on the calling
// goroutine, where http.Transport hands it across three. net/http still
// writes the request and parses the response; the link owns connections
// (DESIGN.md §12). The zero value is ready; a Link must not be copied.
type Link struct {
	// Dial opens a connection ("tcp", host:port); nil uses a net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu   sync.Mutex
	idle map[string][]*linkConn // per replica, most recently used last; guarded by mu
}

const linkMaxIdle = 16 // idle connections kept per replica

type linkConn struct {
	net.Conn
	addr   string // the replica, as the idle stack is keyed
	br     *bufio.Reader
	bw     *bufio.Writer
	reused bool // has sat idle and not answered since: the replica may have closed it
}

// Client returns an http.Client that sends through l.
func (l *Link) Client() *http.Client { return &http.Client{Transport: l} }

// RoundTrip returns the response once its head is read. An idle connection
// that fails before a response's first byte is replaced by a fresh one and
// the request sent again, once: the router's are safe to retransmit. The
// error is the context's once it has ended and never before.
func (l *Link) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	ctx, addr := req.Context(), req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	dial := l.Dial
	if dial == nil {
		dial = new(net.Dialer).DialContext
	}
	for c := l.takeIdle(addr); ; c = nil {
		if c == nil {
			conn, err := dial(ctx, "tcp", addr)
			if err != nil {
				if req.Body != nil {
					req.Body.Close()
				}
				return nil, endedOr(ctx, err)
			}
			// One write takes a head and a 64-event body (21 KB), one read an 8 KB reply.
			c = &linkConn{Conn: conn, addr: addr, br: bufio.NewReaderSize(conn, 16<<10), bw: bufio.NewWriterSize(conn, 32<<10)}
		}
		if resp, err = l.exchange(req, c); err == nil {
			return resp, nil
		}
		c.Close()
		if !c.reused || ctx.Err() != nil || req.Body != nil && req.GetBody == nil {
			return nil, endedOr(ctx, err)
		}
		if req.Body != nil { // the replay sends a copy with the body rewound
			again := *req
			if again.Body, err = req.GetBody(); err != nil {
				return nil, err
			}
			req = &again
		}
	}
}

// exchange runs req on c; on success the body owns c. One AfterFunc expires
// the deadline when the context ends: no goroutine, no timer of the socket's.
func (l *Link) exchange(req *http.Request, c *linkConn) (resp *http.Response, err error) {
	stop := context.AfterFunc(req.Context(), func() { c.SetDeadline(time.Unix(1, 0)) })
	if err = req.Write(c.bw); err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err == nil {
		c.reused = false // it answers: a failure from here on is the replica's
		resp, err = http.ReadResponse(c.br, req)
	}
	if err == nil && resp.StatusCode < 200 {
		err = fmt.Errorf("serve: link: unsolicited %s from %s", resp.Status, c.addr)
	}
	if err != nil {
		stop()
		return nil, err
	}
	resp.Body = &linkBody{body: resp.Body, l: l, c: c, stop: stop, keep: !resp.Close && !req.Close}
	return resp, nil
}

// endedOr is the context's error once it has ended, err until then. A
// deadline the clock has passed counts as ended: the dialer's own timer
// can fire a moment before the context's.
func endedOr(ctx context.Context, err error) error {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func (l *Link) takeIdle(addr string) *linkConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.idle[addr]
	if len(s) == 0 {
		return nil
	}
	l.idle[addr] = s[:len(s)-1]
	return s[len(s)-1]
}

func (l *Link) putIdle(c *linkConn) {
	c.reused = true
	l.mu.Lock()
	if l.idle == nil {
		l.idle = make(map[string][]*linkConn)
	}
	if s := l.idle[c.addr]; len(s) < linkMaxIdle {
		l.idle[c.addr], c = append(s, c), nil
	}
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// CloseIdleConnections closes every connection no exchange holds.
func (l *Link) CloseIdleConnections() {
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.mu.Unlock()
	for _, s := range idle {
		for _, c := range s {
			c.Close()
		}
	}
}

// linkBody settles its connection: handed back when the body ends cleanly,
// keep-alive is allowed, nothing unread sits behind it and the context never
// fired (its AfterFunc may yet expire the deadline); closed otherwise.
type linkBody struct {
	body io.Reader // as ReadResponse framed it; its Close would drain the socket
	l    *Link
	c    *linkConn // nil once settled
	stop func() bool
	keep bool
}

func (b *linkBody) Read(p []byte) (int, error) {
	n, err := b.body.Read(p)
	if err != nil {
		b.release(errors.Is(err, io.EOF))
	}
	return n, err
}

func (b *linkBody) Close() error { b.release(false); return nil }

func (b *linkBody) release(clean bool) {
	c := b.c
	if c == nil {
		return
	}
	b.c = nil
	if unfired := b.stop(); clean && unfired && b.keep && c.br.Buffered() == 0 {
		b.l.putIdle(c)
		return
	}
	c.Close()
}
