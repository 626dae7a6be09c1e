package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leaktest"
)

// exchanged is one request as the server saw it and its reply as the
// client did, in the fields both transports must agree on.
type exchanged struct {
	Method, Path, Host, RequestID, ContentType, TimeoutMS, ContentLength, Body string
	Status                                                                     int
	ReplyType, Reply                                                           string
}

// TestLinkMatchesHTTPTransport: the same POST and GET through the link
// and through http.Transport put the same request on the wire and hand
// back the same reply, whichever way the reply is framed.
func TestLinkMatchesHTTPTransport(t *testing.T) {
	leaktest.Check(t)
	big := strings.Repeat("verdict line\n", 640) // 8 KB: past net/http's 2 KB reply buffer
	var seen exchanged
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen = exchanged{
			Method: r.Method, Path: r.URL.Path, Host: r.Host, RequestID: r.Header.Get(RequestIDHeader),
			ContentType: r.Header.Get("Content-Type"), TimeoutMS: r.Header.Get(TimeoutHeader),
			ContentLength: r.Header.Get("Content-Length"), Body: string(body),
		}
		w.Header().Set("Content-Type", ContentTypeBinaryVerdicts)
		switch r.URL.Path {
		case "/length":
			w.Header().Set("Content-Length", fmt.Sprint(len(big)))
			io.WriteString(w, big)
		case "/chunked":
			io.WriteString(w, big[:100])
			w.(http.Flusher).Flush()
			io.WriteString(w, big[100:])
		case "/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, big)
		case "/503":
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case "/204":
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()

	link := new(Link)
	defer link.CloseIdleConnections()
	ref := &http.Transport{}
	defer ref.CloseIdleConnections()
	through := func(rt http.RoundTripper, method, path string) exchanged {
		t.Helper()
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader("event line\n")
		}
		req, err := http.NewRequest(method, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if method == http.MethodPost {
			req.Header.Set(RequestIDHeader, "req-7")
			req.Header.Set("Content-Type", ContentTypeBinaryEvents)
			req.Header.Set(TimeoutHeader, "250")
		}
		resp, err := (&http.Client{Transport: rt}).Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading the reply: %v", method, path, err)
		}
		got := seen
		got.Status, got.ReplyType, got.Reply = resp.StatusCode, resp.Header.Get("Content-Type"), string(reply)
		return got
	}
	for _, path := range []string{"/length", "/chunked", "/close", "/503", "/204", "/length"} {
		for _, method := range []string{http.MethodPost, http.MethodGet} {
			got, want := through(link, method, path), through(ref, method, path)
			if got != want {
				t.Errorf("%s %s: the link and http.Transport differ:\n link %+v\n http %+v", method, path, got, want)
			}
			if got.Method != method || got.Path != path {
				t.Errorf("%s %s: the server saw %s %s", method, path, got.Method, got.Path)
			}
		}
	}
}

// TestLinkReplaysAStaleConnectionOnce: a connection the replica closed
// while it sat idle is replaced and the request sent again — with its
// body — without the caller hearing of it; a connection that fails fresh
// is the caller's error, after one dial.
func TestLinkReplaysAStaleConnectionOnce(t *testing.T) {
	leaktest.Check(t)
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.Copy(w, r.Body) })
	srv := httptest.NewServer(echo)
	addr := srv.Listener.Addr().String()
	var d leaktest.Dials
	link := &Link{Dial: d.Dial}
	defer link.CloseIdleConnections()
	post := func() (string, error) {
		resp, err := link.Client().Post("http://"+addr+"/", "text/plain", strings.NewReader("batch"))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return string(data), err
	}
	for range 2 {
		if got, err := post(); err != nil || got != "batch" {
			t.Fatalf("post = %q, %v", got, err)
		}
	}
	if d.Total.Load() != 1 {
		t.Fatalf("two exchanges took %d dials, want 1 (keep-alive)", d.Total.Load())
	}

	srv.Close() // closes the idle connection under the link
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	again := &http.Server{Handler: echo}
	go again.Serve(ln)
	defer again.Close()
	if got, err := post(); err != nil || got != "batch" {
		t.Fatalf("post over a stale connection = %q, %v; want the replay's answer", got, err)
	}
	if d.Total.Load() != 2 || d.Open.Load() != 1 {
		t.Fatalf("%d dials, %d open after one replay; want 2 and 1", d.Total.Load(), d.Open.Load())
	}

	// A replica that hangs up on a fresh connection has failed: one dial.
	again.Close()
	link.CloseIdleConnections()
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	leaktest.Within(t, 5*time.Second, "the post, which is not replayed,", func() { _, err = post() })
	if err == nil || d.Total.Load() != 3 || d.Open.Load() != 0 {
		t.Fatalf("post to a replica that hangs up = %v after %d dials, %d open; want an error, 3 and 0 (a fresh failure is not replayed)", err, d.Total.Load(), d.Open.Load())
	}
}

// TestLinkEndsWithItsContext: against a replica that never answers, the
// exchange ends when its context does and not before, with the
// context's error; the connection is closed, not pooled, and the
// replica's handler sees the request go.
func TestLinkEndsWithItsContext(t *testing.T) {
	leaktest.Check(t)
	arrived, gone := make(chan struct{}, 1), make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-r.Context().Done()
		gone <- struct{}{}
	}))
	defer srv.Close()
	var d leaktest.Dials
	link := &Link{Dial: d.Dial}
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }, context.Canceled},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 30*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		ctx, cancel := tc.ctx()
		if tc.want == context.Canceled {
			go func() {
				<-arrived
				cancel()
			}()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader("batch"))
		if err != nil {
			t.Fatal(err)
		}
		var resp *http.Response
		leaktest.Within(t, 5*time.Second, "the exchange, which ends with its context,", func() { resp, err = link.RoundTrip(req) })
		if resp != nil || !errors.Is(err, tc.want) || ctx.Err() == nil {
			t.Errorf("%s: RoundTrip = %v, %v with ctx.Err() = %v; want the context's %v", tc.name, resp, err, ctx.Err(), tc.want)
		}
		cancel()
		leaktest.Within(t, 5*time.Second, "the replica's handler, which sees the request end,", func() { <-gone })
		if d.Open.Load() != 0 {
			t.Errorf("%s: %d connections open; one whose context fired is closed, not pooled", tc.name, d.Open.Load())
		}
	}
}

// TestLinkIdleStackIsBounded: connections handed back to a full stack
// are closed, and CloseIdleConnections closes the rest.
func TestLinkIdleStackIsBounded(t *testing.T) {
	leaktest.Check(t)
	const inflight = linkMaxIdle + 4
	var wg sync.WaitGroup
	wg.Add(inflight)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wg.Done()
		wg.Wait() // every request holds its connection before any is answered
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	var d leaktest.Dials
	link := &Link{Dial: d.Dial}
	var calls sync.WaitGroup
	for range inflight {
		calls.Add(1)
		go func() {
			defer calls.Done()
			resp, err := link.Client().Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	calls.Wait()
	if d.Total.Load() != inflight || d.Open.Load() != linkMaxIdle {
		t.Fatalf("%d dials, %d still open; want %d and the bound, %d", d.Total.Load(), d.Open.Load(), inflight, linkMaxIdle)
	}
	link.CloseIdleConnections()
	if d.Open.Load() != 0 {
		t.Fatalf("%d connections open after CloseIdleConnections", d.Open.Load())
	}
}

// readCounter counts the bytes read from the replica's side of a pipe.
type readCounter struct {
	net.Conn
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += n
	return n, err
}

// FuzzLinkResponse: whatever bytes a replica answers with, the link
// does not panic, never keeps a connection that has unread bytes behind
// the response, and reads the same (status, body) http.Transport does
// whenever both read one.
func FuzzLinkResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil the end"))
	f.Add([]byte("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 9\r\n\r\ndraining\n"))
	f.Add([]byte("HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nshort"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\ncut"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, reply []byte) {
		if len(reply) > 4<<10 {
			t.Skip("one read of the link's buffer holds the whole reply; past that the tail could not be seen")
		}
		var servers sync.WaitGroup
		defer servers.Wait()
		// replica answers one request on the far end of a pipe with reply
		// and hangs up; the near end is the dialed connection.
		replica := func(context.Context, string, string) (net.Conn, error) {
			near, far := net.Pipe()
			servers.Add(1)
			go func() {
				defer servers.Done()
				defer far.Close()
				if req, err := http.ReadRequest(bufio.NewReader(far)); err == nil {
					io.Copy(io.Discard, req.Body)
					far.Write(reply)
				}
			}()
			return near, nil
		}
		ask := func(rt http.RoundTripper) (int, []byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://replica/classify", strings.NewReader("batch"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := rt.RoundTrip(req)
			if err != nil {
				return 0, nil, err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			return resp.StatusCode, body, err
		}

		var near *readCounter
		link := &Link{Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := replica(ctx, network, addr)
			near = &readCounter{Conn: c}
			return near, err
		}}
		status, body, err := ask(link)
		for _, c := range link.idle["replica:80"] {
			if near.n != len(reply) || c.br.Buffered() != 0 {
				t.Errorf("kept a connection with %d of the reply's %d bytes unread and %d buffered", len(reply)-near.n, len(reply), c.br.Buffered())
			}
		}
		link.CloseIdleConnections()

		ref := &http.Transport{DialContext: replica, DisableCompression: true, DisableKeepAlives: true}
		defer ref.CloseIdleConnections()
		if refStatus, refBody, refErr := ask(ref); err == nil && refErr == nil && (status != refStatus || !bytes.Equal(body, refBody)) {
			t.Errorf("the link read %d %q, http.Transport %d %q", status, body, refStatus, refBody)
		}
	})
}
