package machine

import (
	"math"
	"testing"
)

// TestPairMemo: a stored pair is found from another Machine built from
// an equal Config and an equal Workload; a different configuration or
// workload misses; a workload with a NaN field is never entered; a
// workload differing only in the sign of a zero finds the first entry.
func TestPairMemo(t *testing.T) {
	var memo PairMemo[int]
	a, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SkylakeConfig()
	cfg.FreqGHz += 0.1
	faster, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload()
	p := a.PairOf(w)
	memo.Store(&p, 7)

	other := w
	other.ILP += 0.5
	negZero := w
	negZero.Spec.KernelFrac = math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		p    Pair
		want bool
	}{
		{"equal config, other Machine", b.PairOf(w), true},
		{"negative zero", a.PairOf(negZero), true},
		{"other config", faster.PairOf(w), false},
		{"other workload", a.PairOf(other), false},
	} {
		if v, ok := memo.Load(&c.p); ok != c.want || (ok && v != 7) {
			t.Errorf("%s: Load = %v, %v; want found %v", c.name, v, ok, c.want)
		}
	}

	nan := w
	nan.Spec.HotFrac = math.NaN()
	np := a.PairOf(nan)
	memo.Store(&np, 9)
	if got := memo.Len(); got != 1 {
		t.Errorf("memo holds %d entries after storing a NaN pair, want 1", got)
	}
}
