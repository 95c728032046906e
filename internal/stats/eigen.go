package stats

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes all eigenvalues and eigenvectors of a symmetric
// matrix using the cyclic Jacobi rotation method. The returned
// eigenvalues are sorted in descending order and vectors[i] is the
// (unit-length) eigenvector for values[i]. Each eigenvector's sign is
// normalized so that its largest-magnitude component is positive,
// making results deterministic across runs. Input with a NaN or ±Inf
// entry is rejected.
//
// Jacobi is unconditionally stable and needs no external dependencies,
// but each sweep visits all n(n-1)/2 pairs at O(n) per rotation, so a
// sweep is O(n^3). The analysis pipeline's largest input is a 142×142
// correlation matrix (Table III metrics × 7 machines) of rank ≤ 12,
// from 10–13 programs per sub-suite, 17 of whose columns are constant
// on the built-in fleet. Sweeping only the 125 coupled rows, it takes
// ~13–17 ms on one core, which is still most of a warm Table V
// request.
func EigenSym(a *Matrix) (values []float64, vectors [][]float64, err error) {
	n := a.rows
	if n != a.cols {
		return nil, nil, fmt.Errorf("stats: EigenSym requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	if n == 0 {
		return nil, nil, ErrEmptyMatrix
	}
	if i, j, ok := firstNonFinite(a); ok {
		return nil, nil, fmt.Errorf("stats: EigenSym requires finite entries (a[%d][%d]=%g)", i, j, a.At(i, j))
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

	// An isolated row, whose off-diagonal entries in its row and its
	// column are all ±0, takes part in no rotation: every pair with it
	// fails the skip test. A rotation of two other indices writes only
	// zeros into its entries of W and only +0 into its entries of V
	// (c > 0), and the convergence sum squares its entries into +0,
	// which adds nothing. So sweeping only the m active rows, in their
	// original order, on a compacted copy W gives the bits of sweeping
	// the whole matrix, and each isolated row keeps its diagonal value
	// and its unit eigenvector. docs/PERF.md gives the full argument.
	active := make([]int, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && (a.data[i*n+j] != 0 || a.data[j*n+i] != 0) {
				active = append(active, i)
				break
			}
		}
	}
	m := len(active)
	w := make([]float64, m*m)
	for i, r := range active {
		for j, c := range active {
			w[i*m+j] = a.data[r*n+c]
		}
	}
	// Accumulate the rotations in Vᵀ rather than V, so that updating
	// V's columns p and q touches two contiguous rows.
	vt := make([]float64, m*m)
	for i := 0; i < m; i++ {
		vt[i*m+i] = 1
	}
	jacobi(w, vt, m, n)

	// Scatter the active results back: an isolated index keeps its
	// diagonal value and the unit vector (row -1).
	type pair struct {
		val      float64
		idx, row int
	}
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{a.data[i*n+i], i, -1}
	}
	for i, r := range active {
		pairs[r].val, pairs[r].row = w[i*m+i], i
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	values = make([]float64, n)
	vectors = make([][]float64, n)
	for r, p := range pairs {
		values[r] = p.val
		vec := make([]float64, n)
		if p.row < 0 {
			vec[p.idx] = 1
		} else {
			for j, c := range active {
				vec[c] = vt[p.row*m+j]
			}
		}
		normalizeSign(vec)
		vectors[r] = vec
	}
	return values, vectors, nil
}

// jacobi diagonalizes the m×m row-major symmetric matrix w in place by
// cyclic Jacobi sweeps, applying each rotation to the rows of vt too.
// n is the order of the matrix w was compacted from: the convergence
// and skip thresholds are those of the full matrix.
//
// Every product is converted to float64 before it is added, so no
// compiler fuses it into a multiply-add on any architecture.
func jacobi(w, vt []float64, m, n int) {
	const (
		maxSweeps = 100
		eps       = 1e-12
	)
	skip := eps / float64(n*n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < m; i++ {
			for _, x := range w[i*m+i+1 : i*m+m] {
				off += float64(x * x)
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < m-1; p++ {
			rp, vp := w[p*m:p*m+m], vt[p*m:p*m+m]
			for q := p + 1; q < m; q++ {
				rq, vq := w[q*m:q*m+m], vt[q*m:q*m+m]
				apq := rp[q]
				if math.Abs(apq) < skip {
					continue
				}
				app := rp[p]
				aqq := rq[q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c

				// Apply the rotation J(p,q,theta): W = Jᵀ W J, columns
				// first, then rows; then V = V J as rows of Vᵀ.
				for kp, kq := p, q; kq < len(w); kp, kq = kp+m, kq+m {
					wkp := w[kp]
					wkq := w[kq]
					w[kp] = float64(c*wkp) - float64(s*wkq)
					w[kq] = float64(s*wkp) + float64(c*wkq)
				}
				rotate(rp, rq, c, s)
				rotate(vp, vq, c, s)
			}
		}
	}
}

// rotateGo sets x[k], y[k] = c*x[k] - s*y[k], s*x[k] + c*y[k] for
// every k < len(x), rounding each product before it is added. y must
// be at least as long as x. It is rotate's portable form.
func rotateGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = float64(c*xk) - float64(s*yk)
		y[k] = float64(s*xk) + float64(c*yk)
	}
}

// normalizeSign flips vec in place so its largest-magnitude component
// is positive. Eigenvectors are defined only up to sign; fixing the
// sign makes downstream output (PC scores, scatter plots) stable.
func normalizeSign(vec []float64) {
	maxAbs, maxIdx := 0.0, 0
	for i, x := range vec {
		if a := math.Abs(x); a > maxAbs {
			maxAbs, maxIdx = a, i
		}
	}
	if vec[maxIdx] < 0 {
		for i := range vec {
			vec[i] = -vec[i]
		}
	}
}
