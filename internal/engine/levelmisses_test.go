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

// TestLevelMissesMatchesReference: bracketing T with Newton and
// replaying the bisection inside the bracket, stopping the bisection
// at its fixed point, and hoisting the per-line rates out of the
// occupancy sum change no output bit. Trials cycle through random
// levels (single-stream ones, idle and empty streams among them) and
// four constructed kinds: levels whose doubling search escapes at its
// 1e15 bound; near-ties, whose capacity is the computed occupancy at
// some float t or a neighbour of it; levels whose T lies below 2^-27,
// where the 80-step cap ends the bisection before its bounds meet;
// and flat tails, whose capacity falls short of the streams' total by
// a relative 1e-9 to 1e-14, where Newton's bracket may stay open. Each path, and a Newton
// iterate landing at or past T, must be reached at least once by the
// constructed trials. A -race build runs a quarter of the trials.
func TestLevelMissesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var reached struct{ escape, tie, capped, overshoot, open int }
	trials := 200_000
	if raceEnabled {
		trials = 50_000
	}
	for trial := 0; trial < trials; trial++ {
		kind := trial % 10
		capacity, lineBytes, streams, arrival, n, warmup, split := randomLevel(r, kind == 0)
		sizes, mus, total := liveStreams(lineBytes, streams, arrival)
		switch kind {
		case 1, 2: // a near-tie at a t in [1, 1e12], or in [2^-60, 2^-27)
			t0 := math.Exp(r.Float64() * math.Log(1e12))
			if kind == 2 {
				t0 = math.Ldexp(1+r.Float64(), -28-r.Intn(33))
			}
			capacity, _ = occupancy(sizes, mus, t0)
			capacity = math.Nextafter(capacity, capacity+float64(r.Intn(3)-1))
		case 3: // a flat tail
			capacity = total * (1 - math.Pow(10, -9-5*r.Float64()))
		}
		got := levelMisses(capacity, lineBytes, streams, arrival, n, warmup, split)
		want := levelMissesReference(capacity, lineBytes, streams, arrival, n, warmup, split)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (kind %d), stream %d of %d: miss rate %v, reference %v",
					trial, kind, i, len(streams), got[i], want[i])
			}
		}
		if kind > 3 || len(sizes) == 0 || total <= capacity {
			continue
		}
		hi, escaped, capped := bisectionPath(capacity, sizes, mus)
		if escaped {
			reached.escape++
		}
		if capped {
			reached.capped++
		}
		if occ, _ := occupancy(sizes, mus, hi); occ == capacity {
			reached.tie++
		}
		below, above := newtonBracket(capacity, sizes, mus)
		if !math.IsInf(above, 1) {
			reached.overshoot++
		}
		if below == 0 || math.IsInf(above, 1) {
			reached.open++
		}
	}
	t.Logf("paths reached: %+v", reached)
	for _, c := range []struct {
		name  string
		count int
	}{
		{"the doubling search's 1e15 escape", reached.escape},
		{"a tie at the bisection's final upper bound", reached.tie},
		{"the 80-step cap", reached.capped},
		{"a Newton iterate at or past T", reached.overshoot},
		{"a bracket left open", reached.open},
	} {
		if c.count == 0 {
			t.Errorf("no trial reached %s", c.name)
		}
	}
}

// liveStreams returns a level's live stream sizes and per-line rates,
// as levelMisses gathers them, and their total size.
func liveStreams(lineBytes float64, streams []*stream, arrival []float64) (sizes, mus []float64, total float64) {
	for i, st := range streams {
		if st.size > 0 && arrival[i] > 0 {
			sizes = append(sizes, st.size)
			mus = append(mus, arrival[i]*lineBytes/st.size)
			total += st.size
		}
	}
	return sizes, mus, total
}

// bisectionPath walks the bisection characteristicTime replays,
// evaluating occupancy at every point, and returns its final upper
// bound; whether the doubling search stopped at its 1e15 bound with the
// capacity unfilled; and whether the 80-step cap, not adjacent
// bounds, ended the bisection.
func bisectionPath(capacity float64, sizes, mus []float64) (hi float64, escaped, capped bool) {
	short := func(t float64) bool {
		occ, _ := occupancy(sizes, mus, t)
		return occ < capacity
	}
	lo := 0.0
	hi = 1
	for short(hi) && hi < 1e15 {
		hi *= 2
	}
	escaped = short(hi)
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return hi, escaped, false
		}
		if short(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, escaped, math.Nextafter(lo, hi) != hi
}

// TestExpMonotone guards characteristicTime's one assumption: math.Exp
// never decreases from a float64 argument to the next one up. It
// checks ~1e6 seeded arguments in [−745, 0], where the solver's −μt
// lies: around every power-of-two exponent boundary of the argument
// and of the result, uniformly across the range, densely below
// −708.4, where the result is subnormal, and log-uniformly near 0,
// where the result is within ulps of 1.
func TestExpMonotone(t *testing.T) {
	checked := 0
	check := func(x float64) {
		checked++
		next := math.Nextafter(x, math.Inf(1))
		if e, eNext := math.Exp(x), math.Exp(next); eNext < e {
			t.Fatalf("math.Exp(%v) = %v, but math.Exp(%v) = %v", x, e, next, eNext)
		}
	}
	walk := func(x float64, ulps int) {
		for i := 0; i < ulps; i++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for i := 0; i < 2*ulps; i++ {
			check(x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	for k := -1074; k <= 9; k++ { // argument −2^k
		walk(-math.Ldexp(1, k), 8)
	}
	for j := -1074; j <= 0; j++ { // result 2^j
		walk(float64(j)*math.Ln2, 16)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300_000; i++ {
		check(-745 * r.Float64())
		check(-708.4 - 36.7*r.Float64())
		check(-math.Exp(-r.Float64() * 690))
	}
	if checked < 900_000 {
		t.Fatalf("checked only %d arguments", checked)
	}
}
