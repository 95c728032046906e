// Package flight coalesces concurrent calls for the same key onto one
// execution — a context-aware singleflight, and the one such primitive
// on the daemon's request path. Each grain of work coalesces at one
// point, through it: an experiment result in the result cache
// (internal/server), the fleet characterization in the Lab's build
// (internal/experiments), and a measurement in the measurement store
// (internal/store).
//
// The first caller for a key leads: it starts fn on a flight-owned
// goroutine. Callers arriving while that flight is in progress join it
// and share its result. Every caller waits under its own context: a
// canceled caller stops waiting at once, and when the last caller
// leaves, the flight's context is canceled too, so work nobody wants
// stops. A live caller that joined a flight abandoned by the others
// leads a fresh one.
//
// DoInline is the variant for a caller that can spend its own
// goroutine on the work, as the measurement store's callers do: when
// it leads, fn runs on that goroutine under the caller's context, so a
// flight nobody joins costs no goroutine, context or channel.
package flight

import (
	"context"
	"errors"
	"sync"
)

// Group coalesces calls by a key of type K. The zero value is ready
// to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one flight and the callers waiting on it.
type call[V any] struct {
	// done is closed when the flight ends. An inline flight makes it
	// only when a first caller joins.
	done chan struct{}
	val  V
	err  error
	// refs counts callers still waiting and waiters counts callers
	// that joined; abandoned is set when the last caller left while
	// the flight was in progress, or when an inline leader's context
	// ended and fn failed. done, refs, waiters and abandoned are
	// guarded by Group.mu.
	refs      int
	waiters   int
	abandoned bool
	cancel    context.CancelFunc // nil for an inline flight
}

// Do runs fn once per concurrent set of callers with the same key and
// returns its result. fn runs under the flight's context: it carries
// the leading caller's values (its trace span among them) but not its
// cancellation, and it is canceled when every caller has left. joined
// reports whether this caller coalesced onto another caller's flight.
// A caller whose own ctx ends gets ctx.Err().
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (val V, err error, joined bool) {
	return g.do(ctx, key, fn, false)
}

// DoInline is Do for a caller with a goroutine of its own to spend.
// When no flight for key is in progress, the caller leads one inline:
// fn runs on the caller's goroutine under ctx itself, and the caller
// waits for nothing else. Callers arriving meanwhile, through Do or
// DoInline, join it as they would join any flight. If fn fails after
// the leader's ctx ended, the flight counts as abandoned, so a joined
// caller still live leads a fresh one. When a flight is already in
// progress, DoInline joins it exactly like Do.
func (g *Group[K, V]) DoInline(ctx context.Context, key K, fn func(context.Context) (V, error)) (val V, err error, joined bool) {
	return g.do(ctx, key, fn, true)
}

func (g *Group[K, V]) do(ctx context.Context, key K, fn func(context.Context) (V, error), inline bool) (val V, err error, joined bool) {
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		switch {
		case ok:
			c.refs++
			c.waiters++
			if c.done == nil {
				c.done = make(chan struct{})
			}
			g.mu.Unlock()
		case inline:
			c = g.startLocked(key, nil)
			g.mu.Unlock()
			v, err := fn(ctx)
			g.finish(key, c, v, err, err != nil && ctx.Err() != nil)
			return v, err, false
		default:
			fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
			c = g.startLocked(key, cancel)
			c.done = make(chan struct{})
			g.mu.Unlock()
			go func() {
				v, err := fn(fctx)
				g.finish(key, c, v, err, false)
				cancel()
			}()
		}
		joined = ok
		select {
		case <-c.done:
			// abandoned is final once done is closed: leave only sets
			// it on a flight still registered under key.
			if c.abandoned && c.err != nil && ctx.Err() == nil {
				continue // the others left before this caller could; lead anew
			}
			return c.val, c.err, joined
		case <-ctx.Done():
			g.leave(key, c)
			return val, ctx.Err(), joined
		}
	}
}

// startLocked registers a new flight for key, led by the caller.
// Caller holds g.mu.
func (g *Group[K, V]) startLocked(key K, cancel context.CancelFunc) *call[V] {
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	c := &call[V]{refs: 1, cancel: cancel}
	g.calls[key] = c
	return c
}

// finish publishes c's result and ends the flight.
func (g *Group[K, V]) finish(key K, c *call[V], v V, err error, abandoned bool) {
	g.mu.Lock()
	// Publish the result and wake the waiters in the same critical
	// section that deletes the key: a caller that finds no flight
	// under the lock can rely on the result being visible wherever fn
	// stored it.
	c.val, c.err = v, err
	if abandoned {
		c.abandoned = true
	}
	if c.done != nil {
		close(c.done)
	}
	delete(g.calls, key)
	g.mu.Unlock()
}

// leave drops one waiting caller from c, canceling the flight when it
// was the last one.
func (g *Group[K, V]) leave(key K, c *call[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.refs--
	// An inline leader keeps its reference until its flight ends, so
	// only a goroutine-led flight, which has a cancel, reaches zero.
	if c.refs == 0 && g.calls[key] == c {
		c.abandoned = true
		c.cancel()
	}
}

// Waiting reports how many callers have joined key's flight in
// progress (0 if none is). Tests use it to release a blocked flight
// only after every expected caller has joined.
func (g *Group[K, V]) Waiting(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// IsCanceled reports whether err is a context cancellation or deadline
// expiry.
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
