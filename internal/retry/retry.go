// Package retry provides context-aware retry with exponential backoff
// and full jitter, per-attempt timeouts, a max-elapsed budget, and a
// simple circuit breaker. It is the error-handling substrate for the
// fault-tolerant collection and labeling pipeline: the paper's
// deployment talked to remote scan services and reputation feeds that
// fail, time out and rate-limit, and every such interaction in the
// reproduction is wrapped by this package.
//
// Determinism matters here: the chaos harness replays the full pipeline
// under injected faults and asserts byte-identical results, so nothing
// in this package reads global mutable state. Jitter draws from a local
// generator seeded by the policy, and tests substitute the Sleep hook to
// avoid real timers entirely.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Default policy constants, used when the corresponding Policy field is
// zero.
const (
	DefaultMaxAttempts    = 5
	DefaultInitialBackoff = 50 * time.Millisecond
	DefaultMaxBackoff     = 2 * time.Second
	DefaultMultiplier     = 2.0
)

// Policy configures Do. The zero value is usable and selects the
// defaults above with no per-attempt timeout and no elapsed budget.
type Policy struct {
	// MaxAttempts bounds the total number of attempts (first try
	// included). Zero selects DefaultMaxAttempts; negative means retry
	// until the context or MaxElapsed budget expires.
	MaxAttempts int
	// InitialBackoff is the base delay before the second attempt.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth of the backoff.
	MaxBackoff time.Duration
	// Multiplier scales the backoff between attempts (default 2).
	Multiplier float64
	// MaxElapsed bounds the total time spent inside Do, sleeps included;
	// zero means no budget. The budget is checked against the attempt
	// clock before each sleep.
	MaxElapsed time.Duration
	// PerAttemptTimeout, when positive, wraps each attempt's context
	// with a deadline, so one hung call cannot eat the whole budget.
	PerAttemptTimeout time.Duration
	// JitterSeed seeds the full-jitter draw; identical policies produce
	// identical backoff sequences. Zero selects a fixed default seed.
	JitterSeed int64
	// Sleep replaces the real timer when non-nil. It must honour ctx
	// cancellation. Tests and the chaos harness pass a no-op.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now replaces time.Now for the MaxElapsed budget when non-nil.
	Now func() time.Time
	// OnRetry, when non-nil, is invoked before each re-attempt with the
	// 1-based number of the attempt that just failed and its error.
	OnRetry func(attempt int, err error)
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops retrying and returns it immediately.
// A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// ErrBudgetExhausted is wrapped into the returned error when Do gives up
// because MaxElapsed ran out before the operation succeeded.
var ErrBudgetExhausted = errors.New("retry: elapsed budget exhausted")

// Do runs op until it succeeds, returns a Permanent error, exhausts the
// attempt/elapsed budget, or ctx is done. The returned error is the last
// attempt's error (wrapped with attempt context); ctx errors are
// returned as-is.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	maxAttempts := p.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = DefaultMaxAttempts
	}
	initial := p.InitialBackoff
	if initial <= 0 {
		initial = DefaultInitialBackoff
	}
	maxBackoff := p.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultMaxBackoff
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = DefaultMultiplier
	}
	now := p.Now
	if now == nil {
		now = time.Now
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = realSleep
	}
	// Seeded on the first backoff: a source is 5 KB of state, and nearly
	// every call succeeds on its first attempt.
	var jitter *rand.Rand

	start := now()
	backoff := initial
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		err := op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		if maxAttempts > 0 && attempt >= maxAttempts {
			return fmt.Errorf("retry: %d attempts exhausted: %w", attempt, err)
		}
		if p.MaxElapsed > 0 && now().Sub(start) >= p.MaxElapsed {
			return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempt, err)
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		// Full jitter: sleep uniformly in [0, backoff], then grow the
		// ceiling exponentially up to MaxBackoff.
		if jitter == nil {
			seed := p.JitterSeed
			if seed == 0 {
				seed = 1
			}
			jitter = rand.New(rand.NewSource(seed))
		}
		d := time.Duration(jitter.Int63n(int64(backoff) + 1))
		if err := sleep(ctx, d); err != nil {
			return err
		}
		backoff = time.Duration(float64(backoff) * mult)
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// realSleep waits for d or until ctx is done.
func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
