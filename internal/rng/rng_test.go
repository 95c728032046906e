package rng

import (
	"math"
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

// edgeProbabilities are the probabilities where an integer threshold
// could disagree with the float comparison: the ends of [0, 1] and
// beyond them, NaN, subnormals, and each side of k/2^53 for k at both
// ends of the draw range and in between.
func edgeProbabilities() []float64 {
	ps := []float64{0, math.Copysign(0, -1), 1, 2, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		math.Nextafter(1, 0), 0.005, 0.8, 0.95, 0.995, 1.0 / 3}
	r := New(53)
	ks := []uint64{1, 2, 3, 1 << 52, always - 2, always - 1}
	for i := 0; i < 32; i++ {
		ks = append(ks, r.Uint64()>>11)
	}
	for _, k := range ks {
		p := float64(k) / always
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// drawsNear returns draws (top-53-bit values) around t and across the
// range, where a threshold t is most likely to be off by one.
func drawsNear(t uint64, r *Rand) []uint64 {
	ks := []uint64{0, 1, always - 1}
	for d := uint64(0); d <= 2; d++ {
		if t >= d && t-d < always {
			ks = append(ks, t-d)
		}
		if t+d < always {
			ks = append(ks, t+d)
		}
	}
	for i := 0; i < 16; i++ {
		ks = append(ks, r.Uint64()>>11)
	}
	return ks
}

// TestThresholdMatchesFloat64: for edge and random p and draws around
// the threshold, k < Threshold(p) agrees with Float64's k/2^53 < p, and
// Below(Threshold(p)) with Bool(p) on the same stream.
func TestThresholdMatchesFloat64(t *testing.T) {
	r := New(1)
	ps := edgeProbabilities()
	for i := 0; i < 2000; i++ {
		ps = append(ps, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(1080)))
	}
	for _, p := range ps {
		th := Threshold(p)
		if th > always {
			t.Fatalf("Threshold(%v) = %d, above 2^53", p, th)
		}
		for _, k := range drawsNear(th, r) {
			if got, want := k < th, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p = %v (%b), k = %d: k < Threshold = %v, k/2^53 < p = %v", p, p, k, got, want)
			}
		}
		a, b := New(uint64(th)), New(uint64(th))
		for j := 0; j < 64; j++ {
			if a.Bool(p) != b.Below(th) {
				t.Fatalf("p = %v: Bool and Below(Threshold) disagree at draw %d", p, j)
			}
		}
	}
}

// TestScaledThresholdMatchesFloat64: ScaledThreshold(s, p) splits the
// draws exactly where Float64()*s < p changes, for edge and random
// scales and probabilities; with scale 1 it equals Threshold.
func TestScaledThresholdMatchesFloat64(t *testing.T) {
	r := New(2)
	scales := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.5, math.Nextafter(1, 0), 1, 3}
	for i := 0; i < 200; i++ {
		scales = append(scales, r.Float64(), 1-r.Float64()*1e-9)
	}
	ps := edgeProbabilities()
	for i := 0; i < 40; i++ {
		ps = append(ps, r.Float64())
	}
	for _, s := range scales {
		for _, p := range ps {
			th := ScaledThreshold(s, p)
			if s == 1 && th != Threshold(p) {
				t.Fatalf("ScaledThreshold(1, %v) = %d, Threshold = %d", p, th, Threshold(p))
			}
			for _, k := range drawsNear(th, r) {
				if got, want := k < th, float64(k)/(1<<53)*s < p; got != want {
					t.Fatalf("scale %v, p %v, k %d: k < ScaledThreshold = %v, k/2^53*scale < p = %v", s, p, k, got, want)
				}
			}
		}
	}
}

// TestSkipMatchesDraws: Skip(n) leaves a stream where n Uint64 calls
// leave it.
func TestSkipMatchesDraws(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{0, 1, 2, 7, 1000, 7166, r.Uint64n(10_000), r.Uint64n(10_000)} {
		seed := r.Uint64()
		a, b := New(seed), New(seed)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.Skip(n)
		for j := 0; j < 4; j++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("n = %d: draw %d after Skip = %#x, after n draws %#x", n, j, y, x)
			}
		}
	}
}
