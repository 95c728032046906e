// Package rng provides a small, fast, deterministic pseudo-random
// number generator used by the synthetic workload substrate. Every
// stream is keyed by explicit seeds (never wall-clock), so all
// experiments in this repository are reproducible bit-for-bit.
package rng

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
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

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
