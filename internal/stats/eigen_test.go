package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if math.Abs(vals[i]-v) > 1e-10 {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], v)
		}
	}
	// Eigenvectors of a diagonal matrix are the standard basis vectors.
	wantVecs := [][]float64{{1, 0, 0}, {0, 0, 1}, {0, 1, 0}}
	for i, wv := range wantVecs {
		for j := range wv {
			if math.Abs(vecs[i][j]-wv[j]) > 1e-8 {
				t.Fatalf("eigenvector %d = %v, want %v", i, vecs[i], wv)
			}
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
	a, _ := MatrixFromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues %v, want [3 1]", vals)
	}
	s := 1 / math.Sqrt(2)
	if math.Abs(vecs[0][0]-s) > 1e-8 || math.Abs(vecs[0][1]-s) > 1e-8 {
		t.Fatalf("first eigenvector %v, want [%v %v]", vecs[0], s, s)
	}
}

func TestEigenSymRejectsNonSquare(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 1}})
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestEigenSymEmpty(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(0, 0)); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// Property: A·v = λ·v for every eigenpair of a random symmetric matrix.
func TestEigenSymResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				av := 0.0
				for j := 0; j < n; j++ {
					av += a.At(i, j) * vecs[k][j]
				}
				if math.Abs(av-vals[k]*vecs[k][i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: eigenvalue sum equals trace, eigenvectors are orthonormal,
// and values are sorted descending.
func TestEigenSymInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum-trace) > 1e-8*(1+math.Abs(trace)) {
			return false
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				return false
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dot := 0.0
				for k := 0; k < n; k++ {
					dot += vecs[i][k] * vecs[j][k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymSignConvention(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{2, 1}, {1, 2}})
	_, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range vecs {
		maxAbs, maxIdx := 0.0, 0
		for i, x := range v {
			if math.Abs(x) > maxAbs {
				maxAbs, maxIdx = math.Abs(x), i
			}
		}
		if v[maxIdx] < 0 {
			t.Fatalf("eigenvector %d violates sign convention: %v", k, v)
		}
	}
}

func TestEigenSymRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := randomSymmetric(rand.New(rand.NewSource(1)), 3)
		a.Set(1, 2, bad)
		a.Set(2, 1, bad)
		_, _, err := EigenSym(a)
		if err == nil || !strings.Contains(err.Error(), "a[1][2]") {
			t.Fatalf("EigenSym with a[1][2]=%v: err = %v, want an error naming a[1][2]", bad, err)
		}
	}
}

// productionData returns a seeded rows×cols matrix of standard normal
// observations: the analysis pipeline's shape (10–13 programs × 142
// metric columns), whose correlation matrix has rank ≤ rows-1.
func productionData(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := NewMatrix(rows, cols)
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	return x
}

// withConstantColumns sets k seeded, distinct columns of x to
// constants, as a metric that reads the same on every program does,
// and returns x. The constants are small integers, whose column mean
// is exact, so Correlation gives each such column an isolated row.
func withConstantColumns(x *Matrix, k int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	for _, j := range rng.Perm(x.cols)[:k] {
		v := float64(rng.Intn(101))
		for i := 0; i < x.rows; i++ {
			x.Set(i, j, v)
		}
	}
	return x
}

// TestEigenSymMatchesReference pins EigenSym bit for bit against the
// straightforward At/Set implementation it replaced: every eigenvalue
// and eigenvector component must have identical float64 bits.
func TestEigenSymMatchesReference(t *testing.T) {
	type tc struct {
		name string
		a    *Matrix
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 17, 142} {
		cases = append(cases, tc{fmt.Sprintf("random-%d", n), randomSymmetric(rand.New(rand.NewSource(int64(n))), n)})
	}
	corr, err := productionData(10, 142, 7).Correlation()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"correlation-10x142", corr})
	// Table V's shape: 17 of the 142 columns are constant, so their
	// rows of the correlation matrix are isolated.
	for _, rows := range []int{10, 13} {
		corr, err := withConstantColumns(productionData(rows, 142, 7), 17, 7).Correlation()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("correlation-%dx142-17-constant", rows), corr})
	}
	// Every row isolated: nothing to sweep. Some off-diagonals are -0.
	diag := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		diag.Set(i, i, float64((i*5)%7)-2.5)
	}
	for _, pq := range [][2]int{{0, 3}, {2, 6}} {
		diag.Set(pq[0], pq[1], math.Copysign(0, -1))
		diag.Set(pq[1], pq[0], math.Copysign(0, -1))
	}
	cases = append(cases, tc{"all-isolated", diag})
	// Row 3 is isolated, and a[0][1] lies between the skip thresholds
	// of order 4 and order 3, so it is rotated only if the threshold
	// stays that of the full matrix.
	tiny, _ := MatrixFromRows([][]float64{
		{1, 8e-14, 0.5, 0},
		{8e-14, 2, 0.25, 0},
		{0.5, 0.25, 3, 0},
		{0, 0, 0, 4},
	})
	cases = append(cases, tc{"skip-threshold-of-full-order", tiny})
	// Exact-zero off-diagonals outside a few coupled pairs exercise the
	// skip test.
	sparse := NewMatrix(9, 9)
	for i := 0; i < 9; i++ {
		sparse.Set(i, i, float64(i%4)+0.5)
	}
	for _, pq := range [][2]int{{0, 5}, {2, 3}, {4, 8}} {
		sparse.Set(pq[0], pq[1], 0.75)
		sparse.Set(pq[1], pq[0], 0.75)
	}
	cases = append(cases, tc{"zero-off-diagonals", sparse})
	// Two identical 2×2 blocks plus repeated diagonal entries give
	// bitwise-equal eigenvalues, exercising the stable sort's tie order.
	tied, _ := MatrixFromRows([][]float64{
		{2, 1, 0, 0, 0, 0},
		{1, 2, 0, 0, 0, 0},
		{0, 0, 3, 0, 0, 0},
		{0, 0, 0, 2, 1, 0},
		{0, 0, 0, 1, 2, 0},
		{0, 0, 0, 0, 0, 3},
	})
	cases = append(cases, tc{"repeated-eigenvalues", tied})

	for _, c := range cases {
		a := c.a
		t.Run(c.name, func(t *testing.T) {
			gotVals, gotVecs, err := EigenSym(a)
			if err != nil {
				t.Fatal(err)
			}
			wantVals, wantVecs, err := eigenSymReference(a)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantVals {
				if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("values[%d] = %v, reference %v", i, gotVals[i], wantVals[i])
				}
				for j := range wantVecs[i] {
					if math.Float64bits(gotVecs[i][j]) != math.Float64bits(wantVecs[i][j]) {
						t.Fatalf("vectors[%d][%d] = %v, reference %v", i, j, gotVecs[i][j], wantVecs[i][j])
					}
				}
			}
		})
	}
}

// TestRotateMatchesGo checks rotate, the SSE2 kernel on amd64, against
// rotateGo bit for bit: every length up to 9 (each path through the
// four-, two- and one-element loops), the pipeline's 125 and 142, and
// entries that are ±0, subnormal or large enough to overflow. Entries
// of y past len(x) must be left alone.
func TestRotateMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		-1e-310, math.MaxFloat64, -math.MaxFloat64, 1e300, -3e307, 1, -1}
	entry := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
	}
	rotations := [][2]float64{{1, 0}, {1, math.Copysign(0, -1)}, {0.6, 0.8}, {0.6, -0.8}, {1e-200, 1}, {1, -1e-300}}
	for i := 0; i < 20; i++ {
		theta := rng.Float64() * 2 * math.Pi
		rotations = append(rotations, [2]float64{math.Abs(math.Cos(theta)), math.Sin(theta)})
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 125, 142} {
		for _, cs := range rotations {
			x := make([]float64, n)
			y := make([]float64, n+2)
			for k := range x {
				x[k] = entry()
			}
			for k := range y {
				y[k] = entry()
			}
			gx, gy := append([]float64(nil), x...), append([]float64(nil), y...)
			rotate(x, y, cs[0], cs[1])
			rotateGo(gx, gy, cs[0], cs[1])
			for k := range gy {
				if k < n && math.Float64bits(x[k]) != math.Float64bits(gx[k]) {
					t.Fatalf("n=%d c=%v s=%v: x[%d] = %v, rotateGo %v", n, cs[0], cs[1], k, x[k], gx[k])
				}
				if math.Float64bits(y[k]) != math.Float64bits(gy[k]) {
					t.Fatalf("n=%d c=%v s=%v: y[%d] = %v, rotateGo %v", n, cs[0], cs[1], k, y[k], gy[k])
				}
			}
		}
	}
}

// BenchmarkEigenSym diagonalizes correlation matrices of the analysis
// pipeline's shape: 142 metric columns over 10 and 13 programs, and
// Table V's shape, 13 programs with 17 constant columns.
func BenchmarkEigenSym(b *testing.B) {
	for _, bc := range []struct {
		rows, constant int
	}{{10, 0}, {13, 0}, {13, 17}} {
		x := productionData(bc.rows, 142, 1)
		name := fmt.Sprintf("%dx142", bc.rows)
		if bc.constant > 0 {
			x = withConstantColumns(x, bc.constant, 1)
			name += fmt.Sprintf("-%d-constant", bc.constant)
		}
		corr, err := x.Correlation()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := EigenSym(corr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// eigenSymReference is the original EigenSym, kept as the bit-identity
// oracle for the optimized loop. Its only edits are float64
// conversions of each product, which change no amd64 bit and keep
// other architectures from fusing it into a multiply-add, so the
// oracle computes the same bits on every host.
func eigenSymReference(a *Matrix) (values []float64, vectors [][]float64, err error) {
	n := a.rows
	if n != a.cols {
		return nil, nil, fmt.Errorf("stats: EigenSym requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	if n == 0 {
		return nil, nil, ErrEmptyMatrix
	}
	const symTol = 1e-8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > symTol*(1+math.Abs(a.At(i, j))) {
				return nil, nil, fmt.Errorf("stats: EigenSym requires a symmetric matrix (a[%d][%d]=%g, a[%d][%d]=%g)",
					i, j, a.At(i, j), j, i, a.At(j, i))
			}
		}
	}

	// Work on a copy; build up the accumulated rotation matrix V.
	w := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const (
		maxSweeps = 100
		eps       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(w.At(i, j) * w.At(i, j))
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < eps/float64(n*n) {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c

				// Apply the rotation J(p,q,theta): W = Jᵀ W J.
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, float64(c*wkp)-float64(s*wkq))
					w.Set(k, q, float64(s*wkp)+float64(c*wkq))
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, float64(c*wpk)-float64(s*wqk))
					w.Set(q, k, float64(s*wpk)+float64(c*wqk))
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}

	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	values = make([]float64, n)
	vectors = make([][]float64, n)
	for r, p := range pairs {
		values[r] = p.val
		vec := v.Col(p.idx)
		normalizeSign(vec)
		vectors[r] = vec
	}
	return values, vectors, nil
}
