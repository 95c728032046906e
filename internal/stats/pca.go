package stats

import (
	"fmt"
	"math"
)

// PCA holds the result of a principal component analysis: the
// per-component eigenvalues (variances), the loading vectors, the
// projected scores of the input observations, and bookkeeping needed
// to interpret and reduce the transformed space.
type PCA struct {
	// Eigenvalues of the correlation (or covariance) matrix, in
	// descending order. For correlation-based PCA their sum equals the
	// number of input variables, constant ones included: Correlation
	// puts 1 on a constant column's diagonal, so each constant column
	// adds an eigenvalue of exactly 1 whose component scores are all
	// zero, and KaiserComponents counts it.
	Eigenvalues []float64

	// Loadings[k][j] is the weight of original variable j in principal
	// component k (the a_kj of Equation 1 in the paper).
	Loadings [][]float64

	// Scores[i][k] is observation i projected onto component k.
	Scores [][]float64

	// VarExplained[k] is the fraction of total variance captured by
	// component k; CumVarExplained[k] is the running sum.
	VarExplained    []float64
	CumVarExplained []float64

	// Centered data statistics, kept so new observations can be
	// projected consistently with the fit.
	means, scales []float64
	correlation   bool
}

// PCAOptions configures FitPCA.
type PCAOptions struct {
	// Covariance selects covariance-based PCA instead of the default
	// correlation-based (standardized) PCA. The paper standardizes all
	// metrics, so correlation PCA is the default.
	Covariance bool
}

// FitPCA performs principal component analysis on the observations in
// the rows of x (rows = programs, columns = metrics). It follows the
// paper's methodology: standardize each metric to zero mean / unit
// variance, eigendecompose the correlation matrix, and order
// components by decreasing variance. Input with a NaN or ±Inf cell is
// rejected before anything is standardized.
func FitPCA(x *Matrix, opts PCAOptions) (*PCA, error) {
	if x.Rows() < 2 {
		return nil, fmt.Errorf("stats: PCA needs at least 2 observations, have %d", x.Rows())
	}
	if x.Cols() == 0 {
		return nil, ErrEmptyMatrix
	}
	if i, j, ok := firstNonFinite(x); ok {
		return nil, fmt.Errorf("stats: PCA input has a non-finite value at row %d, column %d (%g)", i, j, x.At(i, j))
	}

	means, err := x.ColumnMeans()
	if err != nil {
		return nil, err
	}
	allSDs, err := x.ColumnStddevs()
	if err != nil {
		return nil, err
	}
	anyVariance := false
	for _, sd := range allSDs {
		if sd > 0 {
			anyVariance = true
			break
		}
	}
	if !anyVariance {
		return nil, fmt.Errorf("stats: PCA input has no variance")
	}
	scales := make([]float64, x.Cols())
	var sym *Matrix
	if opts.Covariance {
		for j := range scales {
			scales[j] = 1
		}
		sym, err = x.Covariance()
	} else {
		copy(scales, allSDs)
		sym, err = x.Correlation()
	}
	if err != nil {
		return nil, err
	}

	vals, vecs, err := EigenSym(sym)
	if err != nil {
		return nil, err
	}
	// Numerical noise can make tiny eigenvalues slightly negative;
	// clamp so variance fractions stay sane.
	total := 0.0
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
			v = 0
		}
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("stats: PCA input has no variance")
	}

	p := &PCA{
		Eigenvalues:     vals,
		Loadings:        vecs,
		VarExplained:    make([]float64, len(vals)),
		CumVarExplained: make([]float64, len(vals)),
		means:           means,
		scales:          scales,
		correlation:     !opts.Covariance,
	}
	run := 0.0
	for i, v := range vals {
		p.VarExplained[i] = v / total
		run += v / total
		p.CumVarExplained[i] = run
	}

	p.Scores = make([][]float64, x.Rows())
	for i := 0; i < x.Rows(); i++ {
		p.Scores[i] = p.Project(x.Row(i))
	}
	return p, nil
}

// Project maps a raw observation (in original metric units) into the
// full PC space of the fit.
func (p *PCA) Project(obs []float64) []float64 {
	if len(obs) != len(p.means) {
		panic(fmt.Sprintf("stats: Project observation length %d, want %d", len(obs), len(p.means)))
	}
	z := make([]float64, len(obs))
	for j, v := range obs {
		s := p.scales[j]
		if p.correlation && s == 0 {
			z[j] = 0
			continue
		}
		if !p.correlation {
			s = 1
		}
		z[j] = (v - p.means[j]) / s
	}
	out := make([]float64, len(p.Loadings))
	for k, load := range p.Loadings {
		sum := 0.0
		for j, w := range load {
			sum += float64(w * z[j])
		}
		out[k] = sum
	}
	return out
}

// KaiserComponents returns the number of leading components with
// eigenvalue >= 1 (the Kaiser criterion used throughout the paper).
// At least one component is always retained.
func (p *PCA) KaiserComponents() int {
	k := 0
	for _, v := range p.Eigenvalues {
		if v >= 1 {
			k++
		}
	}
	if k == 0 {
		k = 1
	}
	return k
}

// ComponentsForVariance returns the smallest number of leading
// components whose cumulative variance fraction reaches frac
// (0 < frac <= 1).
func (p *PCA) ComponentsForVariance(frac float64) int {
	for i, c := range p.CumVarExplained {
		if c >= frac {
			return i + 1
		}
	}
	return len(p.CumVarExplained)
}

// ReducedScores returns the scores truncated to the first k components,
// each scaled by the square root of its eigenvalue if weight is true.
// Weighting by sqrt(eigenvalue) makes Euclidean distance in the reduced
// space reflect each component's share of variance, matching common
// practice in benchmark-similarity studies.
func (p *PCA) ReducedScores(k int, weight bool) [][]float64 {
	if k <= 0 || k > len(p.Eigenvalues) {
		panic(fmt.Sprintf("stats: ReducedScores k=%d out of range [1,%d]", k, len(p.Eigenvalues)))
	}
	out := make([][]float64, len(p.Scores))
	for i, s := range p.Scores {
		row := make([]float64, k)
		copy(row, s[:k])
		if weight {
			for c := 0; c < k; c++ {
				row[c] *= math.Sqrt(p.Eigenvalues[c] / p.Eigenvalues[0])
			}
		}
		out[i] = row
	}
	return out
}

// DominantVariables returns the indices of the n variables with the
// largest absolute loading in component k, most dominant first. It is
// used to label scatter-plot axes ("PC2 is dominated by branch
// mispredictions per kilo instruction").
func (p *PCA) DominantVariables(k, n int) []int {
	if k < 0 || k >= len(p.Loadings) {
		panic(fmt.Sprintf("stats: DominantVariables component %d out of range", k))
	}
	load := p.Loadings[k]
	idx := make([]int, len(load))
	for i := range idx {
		idx[i] = i
	}
	// Selection of the top n by |loading| — n is tiny, simple sort is fine.
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			if math.Abs(load[idx[b]]) > math.Abs(load[idx[a]]) {
				idx[a], idx[b] = idx[b], idx[a]
			}
		}
	}
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}
