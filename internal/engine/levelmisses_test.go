package engine

import (
	"math"
	"math/rand"
	"testing"
)

// levelMissesReference is levelMisses as it was before the bisection
// learned to stop at its fixed point: a fixed 80 steps, with each
// stream's per-line rate recomputed inside every occupancy evaluation.
// TestLevelMissesMatchesReference holds the current implementation to
// it bit for bit.
func levelMissesReference(capacity, lineBytes float64, streams []*stream, arrival []float64, n, warmup float64, split bool) []float64 {
	live := false
	total := 0.0
	for i, st := range streams {
		if st.size > 0 && arrival[i] > 0 {
			live = true
			total += st.size
		}
	}
	t := math.Inf(1)
	if live && total > capacity {
		occupancy := func(t float64) float64 {
			sum := 0.0
			for i, st := range streams {
				if st.size <= 0 || arrival[i] <= 0 {
					continue
				}
				mu := arrival[i] * lineBytes / st.size
				sum += st.size * (1 - math.Exp(-mu*t))
			}
			return sum
		}
		lo, hi := 0.0, 1.0
		for occupancy(hi) < capacity && hi < 1e15 {
			hi *= 2
		}
		for iter := 0; iter < 80; iter++ {
			mid := (lo + hi) / 2
			if occupancy(mid) < capacity {
				lo = mid
			} else {
				hi = mid
			}
		}
		t = (lo + hi) / 2
	}

	miss := make([]float64, len(streams))
	for i, st := range streams {
		if st.size <= 0 || arrival[i] <= 0 {
			continue
		}
		mu := arrival[i] * lineBytes / st.size
		h := 1.0
		if !math.IsInf(t, 1) {
			h = 1 - math.Exp(-mu*t)
		}
		horizon := warmup
		if t < horizon {
			horizon = t
		}
		hStart := 1 - math.Exp(-mu*horizon)
		if warmup <= t {
			after := st.prime.afterAll
			if split {
				after = st.prime.afterSide
			}
			res := capacity - after
			if res < 0 {
				res = 0
			}
			if pf := st.prime.frac * st.size; res > pf {
				res = pf
			}
			hStart += math.Exp(-mu*horizon) * res / st.size
		}
		lines := st.size / lineBytes
		refs := arrival[i] * n
		distinct := lines * (1 - math.Exp(-refs/lines))
		miss[i] = ((refs-distinct)*(1-h) + distinct*(1-hStart)) / n
	}
	return miss
}

// randomLevel draws one level's inputs: 1–11 streams (a level serves
// at most 11) with log-uniform sizes and rates, some streams empty or
// idle, and a capacity anywhere from far below to above their total.
// When escape is set, every live rate is so small that no T below
// 1e15 fills the capacity, so the doubling search gives up at its
// bound before the bisection starts.
func randomLevel(r *rand.Rand, escape bool) (capacity, lineBytes float64, streams []*stream, arrival []float64, n, warmup float64, split bool) {
	lineBytes = 64
	if r.Intn(2) == 0 {
		lineBytes = 4096
	}
	k := 1 + r.Intn(11)
	if r.Intn(4) == 0 {
		k = 1
	}
	total := 0.0
	for i := 0; i < k; i++ {
		st := &stream{
			size:  math.Exp(r.Float64()*math.Log(1e9/1e3)) * 1e3,
			instr: r.Intn(2) == 0,
			prime: primeInfo{
				frac:      r.Float64(),
				afterSide: r.Float64() * 1e6,
				afterAll:  r.Float64() * 4e6,
			},
		}
		rate := math.Exp(r.Float64()*math.Log(1e6)) * 1e-6
		if escape {
			rate *= 1e-18
		}
		switch r.Intn(8) {
		case 0:
			rate = 0 // idle stream
		case 1:
			st.size = 0 // empty stream
		}
		streams = append(streams, st)
		arrival = append(arrival, rate)
		total += st.size
	}
	capacity = total * math.Exp(r.Float64()*math.Log(1e4)) * 1e-3
	if escape {
		capacity = total * 0.999
	}
	n = float64(1_000 + r.Intn(1_000_000))
	warmup = float64(r.Intn(200_000))
	split = r.Intn(2) == 0
	return
}

// TestLevelMissesMatchesReference: stopping the bisection at its fixed
// point, and hoisting the per-line rates out of the occupancy sum,
// changes no output bit on random levels, on single-stream levels, with
// idle and empty streams, and when the doubling search escapes at its
// 1e15 bound.
func TestLevelMissesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	escapes := 0
	for trial := 0; trial < 20_000; trial++ {
		escape := trial%10 == 0
		capacity, lineBytes, streams, arrival, n, warmup, split := randomLevel(r, escape)
		got := levelMisses(capacity, lineBytes, streams, arrival, n, warmup, split)
		want := levelMissesReference(capacity, lineBytes, streams, arrival, n, warmup, split)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (escape %v), stream %d of %d: miss rate %v, reference %v",
					trial, escape, i, len(streams), got[i], want[i])
			}
		}
		if escape && escapeReached(capacity, lineBytes, streams, arrival) {
			escapes++
		}
	}
	if escapes == 0 {
		t.Fatal("no trial reached the doubling search's 1e15 bound")
	}
}

// escapeReached reports whether the doubling search over this level
// stops at its 1e15 bound with the capacity still unfilled.
func escapeReached(capacity, lineBytes float64, streams []*stream, arrival []float64) bool {
	occ, total := 0.0, 0.0
	for i, st := range streams {
		if st.size > 0 && arrival[i] > 0 {
			total += st.size
			occ += st.size * (1 - math.Exp(-arrival[i]*lineBytes/st.size*(1<<50)))
		}
	}
	return total > capacity && occ < capacity
}
