package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// retransmitAge is how long ago an ID must have been answered before
	// it is resent: a hundred times a reply's latency, as a client that
	// lost the response and timed out would, yet short enough that at
	// several times today's closed-loop rate the ID is still within
	// half the nodes' dedup retention.
	retransmitAge = 250 * time.Millisecond
	// answeredKeep bounds the requests kept for retransmission, and
	// answeredGap spaces them, so that the ones kept always reach back
	// beyond retransmitAge however fast the requests complete.
	answeredKeep = 256
	answeredGap  = 2 * time.Millisecond
	// timerSlop is how late a sleeping sender may wake up on a busy box
	// without anything queueing: the last request of a step, due one
	// interval before the schedule's end, is not backlog for that.
	timerSlop = 10 * time.Millisecond
	// requestTimeout fails a request that gets no reply; far above any
	// healthy latency, it only turns a wedged daemon into a failure.
	requestTimeout = 30 * time.Second
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// errWrongReply marks a 200 whose body is not the right answer. Such a
// request has failed like any other, and the run's output is incorrect.
var errWrongReply = errors.New("wrong reply")

// answered is one completed request that a later one may retransmit.
type answered struct {
	id   string
	body []byte
	n    int
	sum  uint64 // checksum of the first reply
	at   time.Time
	ord  int // how many first-time answers had arrived, this one included
}

// phase is what one timed phase measured.
type phase struct {
	name        string
	rate        float64 // requests per second offered; 0 for a closed loop
	attempted   int
	failed      int
	wrong       int // of failed: a 200 with the wrong body
	retransmits int
	events      int64           // verdicts received
	retried     int             // requests answered 5xx once and retransmitted
	lat         []time.Duration // per successful request, sorted at the end
	late        []time.Duration // open loop: how long after its due time each request was sent
	backlog     int             // open loop: requests held back beyond the schedule's end, sent after it
	wall        time.Duration   // first send to last reply
	firstErr    error
}

func (p *phase) p(q float64) time.Duration { return quantile(p.lat, q) }

// loader drives one target: a closed loop has callers callers, an open
// step up to conns requests in flight.
type loader struct {
	sp      spec
	base    string
	callers int
	conns   int
	hc      *http.Client
	gen     *generator
	feed    chan *request // encoded ahead of need by produce
	dead    func() error  // reports a daemon that exited

	// producerTID is the OS thread produce runs on, 0 before it starts.
	producerTID atomic.Int64

	mu       sync.Mutex
	answered []answered // oldest first; guarded by mu
	fresh    int        // first-time answers so far; guarded by mu
}

func newLoader(sp spec, base string, callers, conns int, gen *generator, dead func() error) *loader {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &loader{
		sp: sp, base: base, callers: callers, conns: conns, gen: gen, dead: dead,
		//lint:allow retrypolicy the load generator must see every failure as a failure; serve.Client's retries would hide them and distort the offered load
		hc: &http.Client{Transport: tr, Timeout: requestTimeout},
		// Deep enough that the senders never wait for an encode at the
		// highest rate, shallow enough to bound memory at 256-event bodies.
		feed: make(chan *request, 64),
	}
}

// produce encodes the stream ahead of the senders, off the timed path,
// until ctx ends. It keeps an OS thread to itself: encoding is the one
// thing the generator does with the repository's code while a step is
// measured, and that thread's CPU time is left out of the generator's own
// (see senderCPU), which therefore holds only this package, net/http and
// the runtime.
func (l *loader) produce(ctx context.Context) error {
	defer close(l.feed)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	l.producerTID.Store(int64(syscall.Gettid()))
	for {
		r, err := l.gen.next()
		if err != nil {
			return err
		}
		if err := r.encode(l.sp); err != nil {
			return err
		}
		select {
		case l.feed <- r:
		case <-ctx.Done():
			return nil
		}
	}
}

// senderCPU is the CPU time this process has used outside the producer's
// thread: pacing, sending, receiving and checking, that is fixed work per
// request done by this package, net/http and the runtime alone.
func (l *loader) senderCPU() (time.Duration, error) {
	all, err := procCPU(os.Getpid())
	if err != nil {
		return 0, err
	}
	if tid := int(l.producerTID.Load()); tid != 0 {
		// Without per-thread schedstat the producer stays in: procCPU then
		// reads tick-sampled times that are no finer anyway.
		if prod, err := threadCPU(os.Getpid(), tid); err == nil {
			all -= prod
		}
	}
	return all, nil
}

// substitute swaps a request flagged resend for an earlier one that was
// answered at least retransmitAge ago and is still within the nodes'
// dedup retention, when there is one.
func (l *loader) substitute(r *request, now time.Time) (id string, body []byte, n int, want uint64, resent bool) {
	if r.resend {
		l.mu.Lock()
		defer l.mu.Unlock()
		lo := 0
		for lo < len(l.answered) && l.fresh-l.answered[lo].ord > resultRetention/2 {
			lo++
		}
		hi := lo
		for hi < len(l.answered) && now.Sub(l.answered[hi].at) >= retransmitAge {
			hi++
		}
		if hi > lo {
			a := l.answered[lo+int(r.pick*float64(hi-lo))]
			return a.id, a.body, a.n, a.sum, true
		}
	}
	return r.id, r.body, len(r.events), 0, false
}

// remember counts a first-time answer and keeps it for retransmission
// unless the last one kept is younger than answeredGap.
func (l *loader) remember(a answered) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fresh++
	a.ord = l.fresh
	if k := len(l.answered); k > 0 && a.at.Sub(l.answered[k-1].at) < answeredGap {
		return
	}
	if len(l.answered) == answeredKeep {
		copy(l.answered, l.answered[1:])
		l.answered = l.answered[:answeredKeep-1]
	}
	l.answered = append(l.answered, a)
}

// send posts one request and checks the reply: 200, one verdict per
// event, and for a retransmit the bytes of the first reply. A 5xx is
// retransmitted once under the same ID, which is what the wire protocol
// prescribes for it and what serve.Client does; the request's latency
// covers both attempts, the phase counts it as retried, and the request
// fails if the second attempt fails too. Nothing else is ever retried.
func (l *loader) send(ctx context.Context, r *request, buf *bytes.Buffer) (events int, resent, retried bool, err error) {
	id, body, n, want, resent := l.substitute(r, time.Now())
	status, err := l.post(ctx, id, body, buf)
	if err == nil && status >= 500 {
		retried = true
		status, err = l.post(ctx, id, body, buf)
	}
	if err != nil {
		return 0, resent, retried, err
	}
	if status != http.StatusOK {
		return 0, resent, retried, fmt.Errorf("request %s: status %d: %.200s", id, status, buf.Bytes())
	}
	if got := verdictCount(buf.Bytes(), l.sp.binary); got != n {
		return 0, resent, retried, fmt.Errorf("request %s: sent %d events, got %d verdicts: %w", id, n, got, errWrongReply)
	}
	if l.sp.retransmit > 0 {
		sum := crc64.Checksum(buf.Bytes(), crcTable)
		if resent {
			if sum != want {
				return 0, resent, retried, fmt.Errorf("request %s: retransmit answered differently from the first reply: %w", id, errWrongReply)
			}
		} else {
			l.remember(answered{id: id, body: body, n: n, sum: sum, at: time.Now()})
		}
	}
	return n, resent, retried, nil
}

// post is one HTTP exchange; the reply body lands in buf.
func (l *loader) post(ctx context.Context, id string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/classify", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if l.sp.binary {
		req.Header.Set("Content-Type", contentTypeBinary)
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// run executes one phase. rate 0 is a closed loop: each of l.callers
// sends its next request as soon as the reply to its last has arrived,
// for d. Otherwise request i is due at start + i/rate whatever the
// replies do, up to l.conns requests are in flight at once, and a
// request's latency counts from its due time. Every scheduled request is
// sent, however late: a step behind a stalled system runs past d until
// its schedule is used up, and the requests it sends after d are its
// backlog. Nothing is dropped, so a stall costs latency, never a request.
func (l *loader) run(ctx context.Context, name string, rate float64, d time.Duration) (*phase, error) {
	ph := &phase{name: name, rate: rate}
	outer := ctx
	ctx, giveUp := context.WithCancel(ctx)
	defer giveUp()
	var (
		mu    sync.Mutex // guards ph
		wg    sync.WaitGroup
		next  atomic.Int64
		start = time.Now()
		end   = start.Add(d)
		last  = start
	)
	total := int64(rate * d.Seconds())
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	senders := l.conns
	if rate == 0 {
		senders = l.callers
	}
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				due := time.Now()
				if rate > 0 {
					i := next.Add(1) - 1
					if i >= total {
						return
					}
					due = start.Add(time.Duration(i) * interval)
				} else if !due.Before(end) {
					return
				}
				r, ok := <-l.feed
				if !ok {
					return
				}
				var late time.Duration
				behind := false
				if rate > 0 {
					//lint:allow retrypolicy open-loop pacing to the request's due time, not a retry
					time.Sleep(time.Until(due))
					late = time.Since(due)
					behind = late > timerSlop && time.Now().After(end)
				}
				n, resent, retried, err := l.send(ctx, r, &buf)
				done := time.Now()
				mu.Lock()
				ph.attempted++
				if behind {
					ph.backlog++
				}
				if resent {
					ph.retransmits++
				}
				if retried {
					ph.retried++
				}
				if err != nil {
					ph.failed++
					if errors.Is(err, errWrongReply) {
						ph.wrong++
					}
					if ph.firstErr == nil {
						ph.firstErr = err
					}
					if l.dead() != nil {
						giveUp() // no point in sending the rest to a daemon that is gone
					}
				} else {
					ph.events += int64(n)
					ph.lat = append(ph.lat, done.Sub(due))
					if rate > 0 {
						ph.late = append(ph.late, late)
					}
				}
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = last.Sub(start)
	sortDurations(ph.lat)
	sortDurations(ph.late)
	if err := l.dead(); err != nil {
		return nil, err
	}
	if err := outer.Err(); err != nil {
		return nil, err
	}
	return ph, nil
}
