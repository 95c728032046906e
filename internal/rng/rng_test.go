package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestKeyedStreamsIndependent(t *testing.T) {
	a := NewKeyed("mcf_r", 0)
	b := NewKeyed("mcf_r", 1)
	c := NewKeyed("mcf_s", 0)
	same01, same0c := 0, 0
	for i := 0; i < 100; i++ {
		av := a.Uint64()
		if av == b.Uint64() {
			same01++
		}
		if av == c.Uint64() {
			same0c++
		}
	}
	if same01 > 0 || same0c > 0 {
		t.Fatal("keyed streams must differ")
	}
}

// TestKeyedJoinMatchesConcatenation: NewKeyedJoin hashes exactly the
// bytes of its parts' concatenation.
func TestKeyedJoinMatchesConcatenation(t *testing.T) {
	f := func(a, b string, stream uint64) bool {
		return NewKeyedJoin(stream, a, "|", b).Uint64() == NewKeyed(a+"|"+b, stream).Uint64() &&
			NewKeyedJoin(stream).Uint64() == NewKeyed("", stream).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for _, n := range []int{1, 2, 7, 100} {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Uint64n(0)")
		}
	}()
	New(1).Uint64n(0)
}

func TestBoolProbability(t *testing.T) {
	r := New(3)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
	if New(5).Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rand
	_ = r.Uint64() // must not panic
}
