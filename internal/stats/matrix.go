// Package stats provides the dense linear algebra and multivariate
// statistics used by the similarity-analysis pipeline: matrices,
// standardization, covariance/correlation, principal component analysis
// via Jacobi eigendecomposition, and the planar geometry used for
// workload-space coverage analysis.
//
// The package is self-contained (standard library only) and fully
// deterministic: identical inputs always produce identical outputs,
// including eigenvector sign conventions.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
// The zero Matrix is empty and must be initialized with NewMatrix
// or built from rows before use.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("stats: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from a slice of equal-length rows.
// The data is copied; the caller retains ownership of rows.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("stats: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("stats: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("stats: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i. len(v) must equal Cols.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("stats: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m × b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("stats: cannot multiply %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols)
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*b.cols : (i+1)*b.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out, nil
}

// firstNonFinite returns the row and column of the first NaN or ±Inf
// element of m in row-major order, and whether there is one.
func firstNonFinite(m *Matrix) (i, j int, ok bool) {
	for k, x := range m.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return k / m.cols, k % m.cols, true
		}
	}
	return 0, 0, false
}

// ErrEmptyMatrix is returned by statistics that require at least one
// row or column.
var ErrEmptyMatrix = errors.New("stats: empty matrix")

// ColumnMeans returns the per-column means.
func (m *Matrix) ColumnMeans() ([]float64, error) {
	if m.rows == 0 || m.cols == 0 {
		return nil, ErrEmptyMatrix
	}
	means := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			means[j] += m.data[i*m.cols+j]
		}
	}
	for j := range means {
		means[j] /= float64(m.rows)
	}
	return means, nil
}

// ColumnStddevs returns the per-column sample standard deviations
// (divisor n-1). Columns with zero variance report 0.
func (m *Matrix) ColumnStddevs() ([]float64, error) {
	means, err := m.ColumnMeans()
	if err != nil {
		return nil, err
	}
	sds := make([]float64, m.cols)
	if m.rows < 2 {
		return sds, nil
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			d := m.data[i*m.cols+j] - means[j]
			sds[j] += d * d
		}
	}
	for j := range sds {
		sds[j] = math.Sqrt(sds[j] / float64(m.rows-1))
	}
	return sds, nil
}

// Standardize returns a new matrix with each column z-scored:
// (x - mean) / stddev. Columns with zero variance become all zeros
// rather than NaN, so constant metrics are harmless to PCA.
func (m *Matrix) Standardize() (*Matrix, error) {
	means, err := m.ColumnMeans()
	if err != nil {
		return nil, err
	}
	sds, err := m.ColumnStddevs()
	if err != nil {
		return nil, err
	}
	out := NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			sd := sds[j]
			if sd == 0 {
				out.data[i*m.cols+j] = 0
				continue
			}
			out.data[i*m.cols+j] = (m.data[i*m.cols+j] - means[j]) / sd
		}
	}
	return out, nil
}

// Covariance returns the sample covariance matrix (cols×cols) of the
// observations held in the rows of m.
func (m *Matrix) Covariance() (*Matrix, error) {
	if m.rows < 2 {
		return nil, fmt.Errorf("stats: covariance needs at least 2 rows, have %d", m.rows)
	}
	means, err := m.ColumnMeans()
	if err != nil {
		return nil, err
	}
	cov := NewMatrix(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a := 0; a < m.cols; a++ {
			da := row[a] - means[a]
			if da == 0 {
				continue
			}
			for b := a; b < m.cols; b++ {
				cov.data[a*m.cols+b] += da * (row[b] - means[b])
			}
		}
	}
	n1 := float64(m.rows - 1)
	for a := 0; a < m.cols; a++ {
		for b := a; b < m.cols; b++ {
			v := cov.data[a*m.cols+b] / n1
			cov.data[a*m.cols+b] = v
			cov.data[b*m.cols+a] = v
		}
	}
	return cov, nil
}

// Correlation returns the Pearson correlation matrix (cols×cols).
// Pairs involving a zero-variance column are reported as 0 correlation
// (and 1 on the diagonal).
func (m *Matrix) Correlation() (*Matrix, error) {
	cov, err := m.Covariance()
	if err != nil {
		return nil, err
	}
	n := m.cols
	corr := NewMatrix(n, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			va := cov.data[a*n+a]
			vb := cov.data[b*n+b]
			switch {
			case a == b:
				corr.data[a*n+b] = 1
			case va <= 0 || vb <= 0:
				corr.data[a*n+b] = 0
			default:
				corr.data[a*n+b] = cov.data[a*n+b] / math.Sqrt(va*vb)
			}
		}
	}
	return corr, nil
}

// Equal reports whether two matrices have the same shape and all
// elements within tol of each other.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}
