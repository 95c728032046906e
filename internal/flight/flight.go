// Package flight coalesces concurrent calls for the same key onto one
// execution — a context-aware singleflight, and the one such primitive
// on the daemon's request path: the result cache (internal/server),
// the Lab's fleet build (internal/experiments), the scheduler's jobs
// (internal/sched) and the measurement store (internal/store) all
// coalesce through it.
//
// The first caller for a key leads: it starts fn on a flight-owned
// goroutine. Callers arriving while that flight is in progress join it
// and share its result. Every caller waits under its own context: a
// canceled caller stops waiting at once, and when the last caller
// leaves, the flight's context is canceled too, so work nobody wants
// stops. A live caller that joined a flight abandoned by the others
// leads a fresh one.
package flight

import (
	"context"
	"errors"
	"sync"
)

// Group coalesces calls by key. The zero value is ready to use.
type Group[V any] struct {
	// OnJoin, when set, is called each time a caller joins a flight
	// already in progress, before it starts waiting.
	OnJoin func()

	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one flight and the callers waiting on it.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	// refs counts callers still waiting and waiters counts callers
	// that joined; abandoned is set when the last caller left while
	// the flight was in progress. All three are guarded by Group.mu.
	refs      int
	waiters   int
	abandoned bool
	cancel    context.CancelFunc
}

// Do runs fn once per concurrent set of callers with the same key and
// returns its result. fn runs under the flight's context: it carries
// the leading caller's values (its trace span among them) but not its
// cancellation, and it is canceled when every caller has left. joined
// reports whether this caller coalesced onto another caller's flight.
// A caller whose own ctx ends gets ctx.Err().
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (val V, err error, joined bool) {
	for {
		var c *call[V]
		c, joined = g.join(ctx, key, fn)
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

// join registers the caller on key's flight, starting one led by this
// caller when none is in progress.
func (g *Group[V]) join(ctx context.Context, key string, fn func(context.Context) (V, error)) (*call[V], bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.refs++
		c.waiters++
		g.mu.Unlock()
		if g.OnJoin != nil {
			g.OnJoin()
		}
		return c, true
	}
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call[V]{done: make(chan struct{}), refs: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()
	go func() {
		v, err := fn(fctx)
		g.mu.Lock()
		// Publish the result and wake the waiters in the same critical
		// section that deletes the key: a caller that finds no flight
		// under the lock can rely on the result being visible wherever
		// fn stored it.
		c.val, c.err = v, err
		close(c.done)
		delete(g.calls, key)
		g.mu.Unlock()
		cancel()
	}()
	return c, false
}

// leave drops one waiting caller from c, canceling the flight when it
// was the last one.
func (g *Group[V]) leave(key string, c *call[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c.refs--
	if c.refs == 0 && g.calls[key] == c {
		c.abandoned = true
		c.cancel()
	}
}

// Waiting reports how many callers have joined key's flight in
// progress (0 if none is). Tests use it to release a blocked flight
// only after every expected caller has joined.
func (g *Group[V]) Waiting(key string) int {
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
