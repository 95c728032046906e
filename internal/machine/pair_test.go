package machine

import (
	"math"
	"testing"
)

// TestPairMemo: a value stored for a pair is found through the pair of
// another Machine built from an equal Config and an equal Workload, and
// of a workload differing only in the sign of a zero; a different
// configuration or workload is another pair and misses. A workload
// with a NaN field, which no lookup by value can find, keeps one pair
// however often it is keyed.
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
	memo.Store(a.PairOf(w), 7)

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
		if v, ok := memo.Load(c.p); ok != c.want || (ok && v != 7) {
			t.Errorf("%s: Load = %v, %v; want found %v", c.name, v, ok, c.want)
		}
	}
	if got := memo.Len(); got != 1 {
		t.Errorf("memo holds %d entries, want 1", got)
	}

	nan := w
	nan.Spec.HotFrac = math.NaN()
	if p, q := a.PairOf(nan), a.PairOf(nan); p != q || p == a.PairOf(w) {
		t.Errorf("a NaN workload keyed twice gave pairs %d and %d (the valid one is %d), want one pair of its own", p, q, a.PairOf(w))
	}
}

// TestPairNames: a pair names its machine, its workload and its
// content digest, and interning those names gives the pair back, as a
// store snapshot does. The zero Pair names nothing.
func TestPairNames(t *testing.T) {
	m, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload()
	p := m.PairOf(w)
	if p.Machine() != m.Name() || p.Workload() != w.Key || len(p.Content()) != 32 {
		t.Fatalf("pair names %q, %q, %q; want %q, %q and 32 hex digits", p.Machine(), p.Workload(), p.Content(), m.Name(), w.Key)
	}
	if q := InternPair(p.Machine(), p.Workload(), p.Content()); q != p {
		t.Errorf("interning the pair's names gave pair %d, want %d", q, p)
	}
	if q := InternPair(p.Machine(), p.Workload(), "0"+p.Content()[1:]); q == p {
		t.Error("another content digest interned to the same pair")
	}
	var zero Pair
	if zero.Machine() != "" || zero.Workload() != "" || zero.Content() != "" {
		t.Error("the zero Pair names something")
	}
}

// TestPairOfWarmAllocs: finding a pair interned before allocates
// nothing.
func TestPairOfWarmAllocs(t *testing.T) {
	m, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload()
	m.PairOf(w)
	if allocs := testing.AllocsPerRun(100, func() { m.PairOf(w) }); allocs != 0 {
		t.Errorf("PairOf on an interned pair allocates %.1f objects, want 0", allocs)
	}
}
