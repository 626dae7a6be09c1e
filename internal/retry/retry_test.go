package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep is the test Sleep hook: never waits, still honours ctx.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	retries := 0
	p := Policy{Sleep: noSleep, OnRetry: func(int, error) { retries++ }}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want nil", err)
	}
	if calls != 3 || retries != 2 {
		t.Errorf("calls = %d retries = %d, want 3 and 2", calls, retries)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	sentinel := errors.New("boom")
	p := Policy{MaxAttempts: 4, Sleep: noSleep}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Do = %v, want wrapped sentinel", err)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	calls := 0
	sentinel := errors.New("fatal")
	err := Do(context.Background(), Policy{Sleep: noSleep}, func(context.Context) error {
		calls++
		return Permanent(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Do = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !IsPermanent(err) {
		t.Error("returned error lost its permanent marker")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) should be nil")
	}
}

func TestDoContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: -1, Sleep: noSleep}, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
}

func TestDoElapsedBudget(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	calls := 0
	p := Policy{
		MaxAttempts: -1,
		MaxElapsed:  10 * time.Second,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			clock = clock.Add(3 * time.Second)
			return ctx.Err()
		},
		Now: now,
	}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		return errors.New("transient")
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Do = %v, want budget exhausted", err)
	}
	// Budget 10s, 3s per sleep: attempts at t=0,3,6,9 then give up at 12.
	if calls != 5 {
		t.Errorf("calls = %d, want 5", calls)
	}
}

func TestDoPerAttemptTimeout(t *testing.T) {
	p := Policy{MaxAttempts: 2, PerAttemptTimeout: time.Millisecond, Sleep: noSleep}
	err := Do(context.Background(), p, func(ctx context.Context) error {
		<-ctx.Done() // simulate a hung call that only returns on deadline
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, want deadline exceeded", err)
	}
}

func TestDoJitterDeterministic(t *testing.T) {
	record := func() []time.Duration {
		var ds []time.Duration
		calls := 0
		p := Policy{
			MaxAttempts:    6,
			InitialBackoff: 100 * time.Millisecond,
			JitterSeed:     42,
			Sleep: func(ctx context.Context, d time.Duration) error {
				ds = append(ds, d)
				return ctx.Err()
			},
		}
		_ = Do(context.Background(), p, func(context.Context) error {
			calls++
			return errors.New("transient")
		})
		return ds
	}
	a, b := record(), record()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("sleep counts = %d, %d, want 5", len(a), len(b))
	}
	// The sequence is the seed's, drawn from the first backoff on: when
	// the source is built must not show in what it yields.
	src := rand.New(rand.NewSource(42))
	backoff := 100 * time.Millisecond
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("jitter draw %d differs: %v vs %v", i, a[i], b[i])
		}
		if want := time.Duration(src.Int63n(int64(backoff) + 1)); a[i] != want {
			t.Errorf("jitter draw %d = %v, seed 42 yields %v", i, a[i], want)
		}
		backoff *= 2
	}
}

// TestDoFirstAttemptAllocatesNothing: labeling calls Do once per file
// and nearly every call succeeds at once, so the jitter source (5 KB of
// state) must not exist until a backoff needs it.
func TestDoFirstAttemptAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	p := Policy{JitterSeed: 42, Sleep: noSleep}
	op := func(context.Context) error { return nil }
	if n := testing.AllocsPerRun(100, func() {
		if err := Do(ctx, p, op); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a first-attempt success allocates %v objects, want 0", n)
	}
}

func TestDoBackoffCapped(t *testing.T) {
	var ds []time.Duration
	p := Policy{
		MaxAttempts:    10,
		InitialBackoff: time.Second,
		MaxBackoff:     2 * time.Second,
		JitterSeed:     7,
		Sleep: func(ctx context.Context, d time.Duration) error {
			ds = append(ds, d)
			return ctx.Err()
		},
	}
	_ = Do(context.Background(), p, func(context.Context) error { return errors.New("x") })
	for i, d := range ds {
		if d > 2*time.Second {
			t.Errorf("sleep %d = %v exceeds max backoff", i, d)
		}
	}
}

func TestBreakerValidation(t *testing.T) {
	if _, err := NewBreaker(0, time.Second, nil); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := NewBreaker(3, 0, nil); err == nil {
		t.Error("zero reset accepted")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b, err := NewBreaker(3, 10*time.Second, func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	// Two failures: still closed.
	b.Record(boom)
	b.Record(boom)
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	// Third consecutive failure trips it.
	b.Record(boom)
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}
	// After the reset timeout one probe is admitted (half-open).
	clock = clock.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after reset = %v, want nil", err)
	}
	// Probe fails: straight back to open.
	b.Record(boom)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// Wait again; successful probe closes it.
	clock = clock.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if got := b.Trips(); got != 2 {
		t.Errorf("trips = %d, want 2", got)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, err := NewBreaker(2, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(nil)
	b.Record(boom)
	if b.State() != BreakerClosed {
		t.Error("interleaved success did not reset the failure count")
	}
}

// TestBreakerReset pins the out-of-band recovery path: Reset closes an
// open circuit immediately (no reset-timeout wait), releases a held
// half-open probe slot, and a stale in-flight probe failure recorded
// after Reset cannot re-open the circuit on its own.
func TestBreakerReset(t *testing.T) {
	clock := time.Unix(0, 0)
	b, err := NewBreaker(3, 10*time.Second, func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(boom)
	b.Record(boom)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// No clock advance: Reset closes what Allow would still refuse.
	b.Reset()
	if b.State() != BreakerClosed {
		t.Fatalf("state after Reset = %v, want closed", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after Reset = %v, want nil", err)
	}
	b.Record(nil)

	// Reset while a half-open probe is in flight: the slot is released,
	// and the probe's late failure starts a fresh count instead of
	// re-opening the circuit.
	b.Record(boom)
	b.Record(boom)
	b.Record(boom)
	clock = clock.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err) // probe slot taken
	}
	b.Reset()
	b.Record(boom) // the stale probe outcome lands after Reset
	if b.State() != BreakerClosed {
		t.Fatalf("state after stale probe failure = %v, want closed (fresh count)", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow = %v, want nil", err)
	}
	b.Record(nil)
}

// TestBreakerHalfOpenSingleProbe pins the half-open admission contract
// under concurrency: when the reset timeout elapses, exactly one of N
// racing Allow callers wins the probe slot; every loser gets ErrOpen.
// Run under -race, this also proves the slot handoff is properly
// synchronized.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	var clockNS atomic.Int64
	b, err := NewBreaker(1, time.Second, func() time.Time {
		return time.Unix(0, clockNS.Load())
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	b.Record(boom) // trip it
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}
	clockNS.Store(int64(2 * time.Second)) // reset timeout elapsed

	const callers = 64
	var admitted, rejected atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			switch err := b.Allow(); {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrOpen):
				rejected.Add(1)
			default:
				t.Errorf("Allow = %v, want nil or ErrOpen", err)
			}
		}()
	}
	start.Done()
	done.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}
	if got := rejected.Load(); got != callers-1 {
		t.Fatalf("%d callers rejected, want %d", got, callers-1)
	}

	// The winner's Record resolves the probe: a success closes the
	// breaker and lifts the single-slot restriction for everyone.
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	for i := 0; i < 4; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow after close = %v", err)
		}
	}

	// And a failed probe slams it shut again for a full reset period.
	b.Record(boom)
	clockNS.Store(int64(4 * time.Second))
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second reset = %v", err)
	}
	b.Record(boom)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow after failed probe = %v, want ErrOpen", err)
	}
}

func TestBreakerDo(t *testing.T) {
	clock := time.Unix(0, 0)
	b, err := NewBreaker(1, time.Minute, func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Do(func() error { return errors.New("x") }); err == nil {
		t.Fatal("expected failure")
	}
	if err := b.Do(func() error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("Do while open = %v, want ErrOpen", err)
	}
}
