package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Front serves a Handler over HTTP/1.1 as http.Server does, with one
// goroutine per connection and none per request (DESIGN.md §11 *The
// front*). A request head in the shape the tree's clients send is served
// on that goroutine and its reply written in one write: GET or POST of an
// origin-form target over HTTP/1.1, CRLF line ends, one Host, at most one
// all-digit Content-Length within the body cap, token header names, values
// without control bytes, no Transfer-Encoding, Expect, Upgrade, Connection
// or Pragma, the head inside the read buffer. The first head out of shape
// hands the connection, the bytes already read first, to an http.Server
// for the rest of its life. A request's context is its connection's: it
// ends with the connection or on Close, not when a client hangs up
// mid-request. Set Handler before Serve; a Front must not be copied.
type Front struct {
	Handler http.Handler

	once     sync.Once
	ctx      context.Context // every request's: ends on Close
	cancel   context.CancelFunc
	fallback http.Server
	handoff  frontListener
	closing  atomic.Bool
	conned   sync.WaitGroup // a connection's goroutine, until it ends

	mu    sync.Mutex
	lns   []net.Listener      // guarded by mu
	conns map[*frontConn]bool // true while idle between requests; guarded by mu

	fallbacks, replyFailed atomic.Uint64
}

// frontBufSize is the read buffer a head must fit. A body the handler
// left maxPostHandlerReadBytes or more of unread closes the connection,
// a shorter one is read through: net/http's rule and threshold.
const frontBufSize, maxPostHandlerReadBytes = 16 << 10, 256 << 10

// RegisterFront declares, on a node's or a router's registry, the
// counters of the Front in front, the one that serves its handler. They
// read 0 while front holds none, as under an httptest server.
func RegisterFront(reg *obs.Registry, front *atomic.Pointer[Front]) {
	reg.Family(func(s *obs.Scrape) {
		var fallbacks, failed uint64
		if f := front.Load(); f != nil {
			fallbacks, failed = f.fallbacks.Load(), f.replyFailed.Load()
		}
		s.Uint("longtail_http_fallback_total", "", fallbacks)
		s.Uint("longtail_http_reply_failed_total", "", failed)
	})
}

func (f *Front) init() {
	f.once.Do(func() {
		f.ctx, f.cancel = context.WithCancel(context.Background())
		f.fallback.Handler = f.Handler
		f.fallback.BaseContext = func(net.Listener) context.Context { return f.ctx }
		f.handoff = frontListener{ch: make(chan net.Conn), done: make(chan struct{})}
		go f.fallback.Serve(&f.handoff)
	})
}

// Serve accepts connections on ln until Shutdown or Close, and then
// returns http.ErrServerClosed.
func (f *Front) Serve(ln net.Listener) error {
	f.init()
	f.mu.Lock()
	f.lns = append(f.lns, ln)
	f.mu.Unlock()
	if f.closing.Load() { // stop may have run before ln was listed
		ln.Close()
	}
	for {
		conn, err := ln.Accept()
		if ne, ok := err.(net.Error); ok && ne.Temporary() && !f.closing.Load() {
			time.Sleep(10 * time.Millisecond) // out of descriptors: net/http waits too
			continue
		}
		if err != nil {
			if f.closing.Load() {
				return http.ErrServerClosed
			}
			return err
		}
		c := &frontConn{Conn: conn, br: bufio.NewReaderSize(conn, frontBufSize)}
		if !f.track(c, true) {
			conn.Close()
			return http.ErrServerClosed
		}
		go f.serveConn(c)
	}
}

// Shutdown stops accepting and closes idle connections, its fallback
// server's included; in-flight requests are answered and their
// connections closed. It returns once none is left or ctx ends.
func (f *Front) Shutdown(ctx context.Context) error {
	err := f.stop(false)
	if ferr := f.fallback.Shutdown(ctx); ferr != nil {
		return ferr
	}
	done := make(chan struct{})
	go func() { // ends when the last connection does, if ctx ends first
		f.conned.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close closes the listeners and every connection, and ends every
// request's context.
func (f *Front) Close() error {
	err := f.stop(true)
	f.cancel()
	f.fallback.Close()
	return err
}

// stop closes the listeners and the idle connections, or all of them.
func (f *Front) stop(all bool) (err error) {
	f.init()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closing.Store(true)
	for _, ln := range f.lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	f.lns = nil
	for c, idle := range f.conns {
		if all || idle {
			c.Close()
		}
	}
	return err
}

// track marks c idle or busy; false once the Front is closing, when c
// must go.
func (f *Front) track(c *frontConn, idle bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conns == nil {
		f.conns = make(map[*frontConn]bool)
	}
	if f.closing.Load() {
		return false
	}
	if _, ok := f.conns[c]; !ok {
		f.conned.Add(1)
	}
	f.conns[c] = idle
	return true
}

type frontConn struct {
	net.Conn
	br *bufio.Reader
	w  frontWriter
}

func (f *Front) serveConn(c *frontConn) {
	ctx, cancel := context.WithCancel(f.ctx)
	tmpl := (&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Body: http.NoBody, RemoteAddr: c.RemoteAddr().String()}).WithContext(ctx)
	handed := false
	defer func() {
		cancel()
		p := recover()
		if err, _ := p.(error); p != nil && !errors.Is(err, http.ErrAbortHandler) { // a panic ends its connection, as under net/http
			log.Printf("serve: front: panic serving %s: %v\n%s", tmpl.RemoteAddr, p, debug.Stack())
		}
		if !handed {
			c.Close()
		}
		f.mu.Lock()
		delete(f.conns, c)
		f.mu.Unlock()
		f.conned.Done()
	}()
	for post := false; ; {
		if _, err := c.br.Peek(1); err != nil || !f.track(c, false) {
			return
		}
		if post { // net/http skips up to four CR or LF a client left after a POST body
			p, _ := c.br.Peek(4)
			c.br.Discard(len(p) - len(bytes.TrimLeft(p, "\r\n")))
		}
		head := peekHead(c.br)
		req := shaped(head, tmpl)
		if req == nil {
			select {
			case f.handoff.ch <- &handedConn{Conn: c.Conn, br: c.br}:
				handed = true
				f.fallbacks.Add(1)
			case <-f.handoff.done:
			}
			return
		}
		if c.br.Discard(len(head)); !f.exchange(c, req) || !f.track(c, true) {
			return
		}
		post = req.Method == http.MethodPost
	}
}

// exchange serves req on c and reports whether c stays open for the next.
func (f *Front) exchange(c *frontConn, req *http.Request) bool {
	body := &frontBody{io.LimitedReader{R: c.br, N: req.ContentLength}}
	if req.ContentLength > 0 {
		req.Body = body
	}
	w := &c.w
	w.header, w.status, w.body = make(http.Header), 0, w.body[:0]
	f.Handler.ServeHTTP(w, req)
	w.WriteHeader(http.StatusOK)
	keep, tooBig := !f.closing.Load() && w.header.Get("Connection") != "close", false
	if n, err := strconv.Atoi(w.header.Get("Content-Length")); err == nil && n >= 0 && n != len(w.body) && bodyAllowed(w.status) {
		w.body, keep = w.body[:min(n, len(w.body))], false // the handler broke its own framing
	}
	if keep && body.N > 0 {
		if tooBig = body.N >= maxPostHandlerReadBytes; !tooBig {
			_, err := c.br.Discard(int(body.N))
			keep = err == nil
		}
	}
	_, err := c.Write(w.finish(!keep || tooBig))
	if cap(w.out) > maxPostHandlerReadBytes { // not kept for the next reply
		w.out, w.body = nil, nil
	}
	if err != nil && f.ctx.Err() == nil {
		f.replyFailed.Add(1)
	}
	if err == nil && tooBig { // an unread body left behind must not turn the reply into a reset
		closeWrite(c.Conn)
		time.Sleep(500 * time.Millisecond)
	}
	return err == nil && keep && !tooBig
}

// peekHead returns the next request's head, unconsumed, once its blank
// line has arrived; nil once the bytes leave the shape: a line out of
// shape (net/http refuses a malformed line as soon as it has read it), a
// bare LF, a head past the buffer, the stream ending or failing mid-head.
func peekHead(br *bufio.Reader) []byte {
	for {
		p, _ := br.Peek(br.Buffered())
		if i := bytes.Index(p, []byte("\r\n\r\n")); i >= 0 {
			return p[:i+4]
		}
		lines := strings.Split(string(p), "\r\n")
		for i, line := range lines[:len(lines)-1] {
			if !inShape(line, i == 0) {
				return nil
			}
		}
		if strings.Contains(lines[len(lines)-1], "\n") {
			return nil
		}
		if _, err := br.Peek(len(p) + 1); err != nil {
			return nil
		}
	}
}

const alnumBytes = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

// inShape reports whether one line of a head, the request line when
// first, is in shape.
func inShape(line string, first bool) bool {
	if first {
		method, line, _ := strings.Cut(line, " ")
		target, proto, _ := strings.Cut(line, " ")
		_, err := url.ParseRequestURI(target)
		return (method == http.MethodGet || method == http.MethodPost) && proto == "HTTP/1.1" && err == nil &&
			target[0] == '/' && !strings.ContainsFunc(target, func(r rune) bool { return r <= ' ' || r >= 0x7f })
	}
	k, v, ok := strings.Cut(line, ":")
	switch textproto.CanonicalMIMEHeaderKey(k) {
	case "Transfer-Encoding", "Expect", "Upgrade", "Connection", "Pragma":
		return false
	}
	return ok && k != "" && strings.Trim(k, "!#$%&'*+-.^_`|~"+alnumBytes) == "" &&
		!strings.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f })
}

// shaped parses a head in shape into a request on tmpl's context; nil for
// any other head, which is net/http's to answer.
func shaped(head []byte, tmpl *http.Request) *http.Request {
	if head == nil {
		return nil
	}
	lines := strings.Split(string(head[:len(head)-4]), "\r\n") // each string of the request slices this one
	if !inShape(lines[0], true) {
		return nil
	}
	method, target, _ := strings.Cut(lines[0], " ")
	target, _, _ = strings.Cut(target, " ")
	u, _ := url.ParseRequestURI(target)
	h, vals := make(http.Header, len(lines)), make([]string, len(lines))
	host, hosts, length, lengths := "", 0, int64(0), 0
	for i, kv := range lines[1:] {
		if !inShape(kv, false) {
			return nil
		}
		k, v, _ := strings.Cut(kv, ":")
		switch k, v = textproto.CanonicalMIMEHeaderKey(k), strings.Trim(v, " \t"); k {
		case "Host":
			host, hosts = v, hosts+1
			continue
		case "Content-Length":
			var err error
			length, err = strconv.ParseInt(v, 10, 64)
			if lengths++; err != nil || strings.Trim(v, "0123456789") != "" || length > maxBodyBytes {
				return nil
			}
		}
		if vals[i] = v; h[k] == nil {
			h[k] = vals[i : i+1 : i+1] // one allocation for every single-valued header
		} else {
			h[k] = append(h[k], v)
		}
	}
	if hosts != 1 || lengths > 1 || host == "" || strings.Trim(host, alnumBytes+".-:[]") != "" {
		return nil
	}
	req := new(http.Request)
	*req = *tmpl
	req.Method, req.URL, req.Header, req.Host, req.RequestURI, req.ContentLength = method, u, h, host, target, length
	return req
}

// frontBody is a request body read straight off the connection's buffer.
type frontBody struct{ io.LimitedReader }

func (b *frontBody) Read(p []byte) (int, error) {
	n, err := b.LimitedReader.Read(p)
	if errors.Is(err, io.EOF) && b.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *frontBody) Close() error { return nil }

// frontWriter buffers a reply whole.
type frontWriter struct {
	header    http.Header
	status    int
	out, body []byte
}

func bodyAllowed(status int) bool { return status >= 200 && status != 204 && status != 304 }

func (w *frontWriter) Header() http.Header { return w.header }

func (w *frontWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *frontWriter) Write(p []byte) (int, error) {
	if w.WriteHeader(http.StatusOK); !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// finish renders the reply as net/http would: the handler's headers, then
// Date, Content-Length, a sniffed Content-Type where the handler set none,
// Connection: close when closing, then the body.
func (w *frontWriter) finish(closing bool) []byte {
	h, text, bodied := w.header, http.StatusText(w.status), bodyAllowed(w.status)
	if text == "" {
		text = "status code " + strconv.Itoa(w.status)
	}
	if !bodied {
		h.Del("Content-Length")
		h.Del("Transfer-Encoding")
	}
	b := append(strconv.AppendInt(append(w.out[:0], "HTTP/1.1 "...), int64(w.status), 10), ' ')
	b = append(append(b, text...), "\r\n"...)
	h.Write((*appender)(&b))
	if _, ok := h["Date"]; !ok {
		b = append(time.Now().UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat), "\r\n"...)
	}
	if _, ok := h["Content-Length"]; !ok && bodied {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(len(w.body)), 10), "\r\n"...)
	}
	if _, ok := h["Content-Type"]; !ok && bodied && len(w.body) > 0 && h.Get("Content-Encoding") == "" {
		b = append(append(append(b, "Content-Type: "...), http.DetectContentType(w.body)...), "\r\n"...)
	}
	if closing && h.Get("Connection") != "close" {
		b = append(b, "Connection: close\r\n"...)
	}
	w.out = append(append(b, "\r\n"...), w.body...)
	return w.out
}

type appender []byte

func (a *appender) Write(p []byte) (int, error)       { *a = append(*a, p...); return len(p), nil }
func (a *appender) WriteString(s string) (int, error) { *a = append(*a, s...); return len(s), nil }

// frontListener hands the fallback server what the front gives up on.
type frontListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *frontListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *frontListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *frontListener) Addr() net.Addr { return &net.TCPAddr{} }

// handedConn is a connection net/http reads through the front's buffer,
// so the bytes the front has peeked come first.
type handedConn struct {
	net.Conn
	br *bufio.Reader
}

func (h *handedConn) Read(p []byte) (int, error) { return h.br.Read(p) }
func (h *handedConn) CloseWrite() error          { closeWrite(h.Conn); return nil }

// closeWrite half-closes c where it can, as net/http's lingering close
// does before it waits: the client reads the reply, not a reset.
func closeWrite(c net.Conn) {
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
}
