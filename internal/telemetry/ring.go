package telemetry

// Ring is a fixed-capacity buffer that keeps the newest values: once
// full, each Add overwrites the oldest. It backs the tracer's finished
// traces. It is not safe for concurrent use; its owner guards it with
// its own lock.
type Ring[T any] struct {
	// buf grows by append until it holds size values, so a ring that
	// is never filled (a short-lived process's traces) never pays for
	// its full capacity.
	buf  []T
	size int
	next int // the oldest value's index once buf is full
}

// NewRing returns an empty ring holding at most capacity values;
// capacity must be at least 1.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{size: capacity}
}

// Add appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Add(v T) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.size
}

// Copy returns the values oldest-first, in a slice the ring does not
// share.
func (r *Ring[T]) Copy() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }
