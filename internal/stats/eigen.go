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
// from 10–13 programs per sub-suite; it takes ~20–40 ms on one core,
// which makes this the dominant cost of a warm Table V request.
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

	// Work on a copy W of a, row-major. Accumulate the rotations in Vᵀ
	// rather than V, so that updating V's columns p and q touches two
	// contiguous rows.
	w := a.Clone().data
	vt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		vt[i*n+i] = 1
	}

	const (
		maxSweeps = 100
		eps       = 1e-12
	)
	skip := eps / float64(n*n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, x := range w[i*n+i+1 : i*n+n] {
				off += x * x
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < n-1; p++ {
			rp, vp := w[p*n:p*n+n], vt[p*n:p*n+n]
			for q := p + 1; q < n; q++ {
				// Reslicing to len(rp) and len(vp) lets the compiler
				// drop the bounds checks in the row loops below.
				rq, vq := w[q*n : q*n+n][:len(rp)], vt[q*n : q*n+n][:len(vp)]
				apq := rp[q]
				if math.Abs(apq) < skip {
					continue
				}
				app := rp[p]
				aqq := rq[q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply the rotation J(p,q,theta): W = Jᵀ W J, columns
				// first, then rows; then V = V J as rows of Vᵀ.
				for kp, kq := p, q; kq < len(w); kp, kq = kp+n, kq+n {
					wkp := w[kp]
					wkq := w[kq]
					w[kp] = c*wkp - s*wkq
					w[kq] = s*wkp + c*wkq
				}
				for k, wpk := range rp {
					wqk := rq[k]
					rp[k] = c*wpk - s*wqk
					rq[k] = s*wpk + c*wqk
				}
				for k, vkp := range vp {
					vkq := vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
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
		pairs[i] = pair{w[i*n+i], i}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	values = make([]float64, n)
	vectors = make([][]float64, n)
	for r, p := range pairs {
		values[r] = p.val
		vec := append([]float64(nil), vt[p.idx*n:p.idx*n+n]...)
		normalizeSign(vec)
		vectors[r] = vec
	}
	return values, vectors, nil
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
