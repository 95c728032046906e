package engine

import (
	"math"
	"testing"
)

// FuzzBandRatio checks Band.Ratio's contract on every committed band
// for any finite pair: it never panics, never returns NaN or a negative
// ratio, reads 0 on exact agreement, and is symmetric in its
// arguments. Seeds live in testdata/fuzz/FuzzBandRatio.
func FuzzBandRatio(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, x float64) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		for m, b := range Tolerances {
			r := b.Ratio(a, x)
			if math.IsNaN(r) || r < 0 {
				t.Fatalf("%s: Ratio(%v, %v) = %v, want a non-negative number", m, a, x, r)
			}
			if rs := b.Ratio(x, a); math.Float64bits(rs) != math.Float64bits(r) {
				t.Fatalf("%s: Ratio(%v, %v) = %v but Ratio(%v, %v) = %v", m, a, x, r, x, a, rs)
			}
			if r := b.Ratio(a, a); r != 0 {
				t.Fatalf("%s: Ratio(%v, %v) = %v, want 0", m, a, a, r)
			}
		}
	})
}
