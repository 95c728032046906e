// Package rng provides a small, fast, deterministic pseudo-random
// number generator used by the synthetic workload substrate. Every
// stream is keyed by explicit seeds (never wall-clock), so all
// experiments in this repository are reproducible bit-for-bit.
package rng

import "math"

// gamma is splitmix64's increment: each draw adds it to the state.
const gamma = 0x9e3779b97f4a7c15

// Rand is a splitmix64-based generator. The zero value is a valid
// generator seeded with 0; use New to derive independent streams.
type Rand struct {
	state uint64
}

// New returns a generator whose stream is determined entirely by seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// NewKeyed derives a generator from a string key and a numeric stream
// id using FNV-1a hashing, so independent subsystems (data addresses,
// branch outcomes, block selection, ...) of the same workload never
// share a stream.
func NewKeyed(key string, stream uint64) *Rand {
	return NewKeyedJoin(stream, key)
}

// NewKeyedJoin is NewKeyed of the concatenation of parts, without
// building it: NewKeyedJoin(s, a, "|", b) is the stream of
// NewKeyed(a+"|"+b, s).
func NewKeyedJoin(stream uint64, parts ...string) *Rand {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, key := range parts {
		for i := 0; i < len(key); i++ {
			h ^= uint64(key[i])
			h *= prime64
		}
	}
	h ^= stream
	h *= prime64
	return New(h)
}

// Uint64 returns the next value of the splitmix64 sequence.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances r past n draws in O(1): afterwards r returns what it
// would have returned after n Uint64 calls.
func (r *Rand) Skip(n uint64) { r.state += n * gamma }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// always is the threshold every draw falls below: Below(always) is
// true for every draw. It is 2^53, the count of Float64 values.
const always = 1 << 53

// Threshold returns the integer form of the test Float64() < p: for
// every draw, Float64() < p exactly when Below(Threshold(p)) is true,
// and both consume one draw. Float64 is k/2^53 for the draw's top 53
// bits k, and k/2^53 < p exactly when k < ⌈p·2^53⌉, a product that
// scaling by a power of two leaves exact. A p at or below zero, or
// NaN, never passes; a p of one or more always does.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return always
	}
	return uint64(math.Ceil(p * always))
}

// ScaledThreshold returns the integer form of the test
// Float64()*scale < p, for a scale that is not negative: the least k
// in [0, 2^53] for which float64(k)/2^53*scale < p fails, found by
// bisection. Rounding is monotone, so the product never falls as k
// grows, and the test holds for every k below the result and fails
// for every k at or above it.
func ScaledThreshold(scale, p float64) uint64 {
	lo, hi := uint64(0), uint64(always)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/always*scale < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Below draws once and reports whether the draw falls below the
// threshold t: with t = Threshold(p) it is Bool(p), bit for bit.
func (r *Rand) Below(t uint64) bool {
	return r.Uint64()>>11 < t
}
