package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	NewMatrix(-1, 2)
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("got %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1)=%v, want 6", m.At(2, 1))
	}
}

func TestMatrixFromRowsRagged(t *testing.T) {
	if _, err := MatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestMatrixFromRowsEmpty(t *testing.T) {
	m, err := MatrixFromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("got %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestMatrixSetGetRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2)=%v", m.At(1, 2))
	}
	m.SetRow(0, []float64{1, 2, 3})
	row := m.Row(0)
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Fatalf("Row(0)=%v", row)
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 7.5 {
		t.Fatalf("Col(2)=%v", col)
	}
	// Row returns a copy: mutating it must not affect the matrix.
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row must return a copy")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestColumnMeansAndStddevs(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 10}, {2, 20}, {3, 30}})
	means, err := m.ColumnMeans()
	if err != nil {
		t.Fatal(err)
	}
	if means[0] != 2 || means[1] != 20 {
		t.Fatalf("means=%v", means)
	}
	sds, err := m.ColumnStddevs()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sds[0]-1) > 1e-12 || math.Abs(sds[1]-10) > 1e-12 {
		t.Fatalf("stddevs=%v", sds)
	}
}

func TestCovarianceKnown(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov, err := m.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	// var(x)=1, var(y)=4, cov=2 for y=2x.
	want, _ := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if !cov.Equal(want, 1e-12) {
		t.Fatalf("cov=%+v", cov)
	}
}

func TestCorrelationPerfect(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2, -1}, {2, 4, -2}, {3, 6, -3}, {4, 8, -4}})
	corr, err := m.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr.At(0, 1)-1) > 1e-12 {
		t.Fatalf("corr(x,2x)=%v, want 1", corr.At(0, 1))
	}
	if math.Abs(corr.At(0, 2)+1) > 1e-12 {
		t.Fatalf("corr(x,-x)=%v, want -1", corr.At(0, 2))
	}
	for i := 0; i < 3; i++ {
		if corr.At(i, i) != 1 {
			t.Fatalf("diagonal must be 1")
		}
	}
}

func TestCorrelationConstantColumn(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 7}, {2, 7}, {3, 7}})
	corr, err := m.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	if corr.At(0, 1) != 0 || corr.At(1, 1) != 1 {
		t.Fatalf("constant-column correlation handling wrong: %+v", corr)
	}
}

// TestConstantColumnIsExact: a column of ten 0.1s, whose summed mean
// is 0.09999999999999999, still has mean 0.1, standard deviation 0,
// zero covariances and zero correlations with every other column.
func TestConstantColumnIsExact(t *testing.T) {
	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = []float64{0.1, float64(i * i), -0.3}
	}
	var sum float64
	for range rows {
		sum += 0.1
	}
	if sum/10 == 0.1 {
		t.Fatalf("summed mean of ten 0.1s is exact (%v); the case tests nothing", sum/10)
	}
	m, _ := MatrixFromRows(rows)
	means, err := m.ColumnMeans()
	if err != nil {
		t.Fatal(err)
	}
	if means[0] != 0.1 || means[2] != -0.3 {
		t.Fatalf("means = %v, want 0.1 and -0.3 for the constant columns", means)
	}
	sds, err := m.ColumnStddevs()
	if err != nil {
		t.Fatal(err)
	}
	if sds[0] != 0 || sds[2] != 0 || sds[1] <= 0 {
		t.Fatalf("stddevs = %v", sds)
	}
	cov, err := m.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := m.Correlation()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 2} {
		for k := 0; k < 3; k++ {
			if cov.At(c, k) != 0 || cov.At(k, c) != 0 {
				t.Errorf("cov(%d,%d) = %v, cov(%d,%d) = %v, want 0", c, k, cov.At(c, k), k, c, cov.At(k, c))
			}
			if k != c && (corr.At(c, k) != 0 || corr.At(k, c) != 0) {
				t.Errorf("corr(%d,%d) = %v, corr(%d,%d) = %v, want 0", c, k, corr.At(c, k), k, c, corr.At(k, c))
			}
		}
	}
}

func TestCovarianceNeedsTwoRows(t *testing.T) {
	m := NewMatrix(1, 3)
	if _, err := m.Covariance(); err == nil {
		t.Fatal("expected error for single-row covariance")
	}
}

// Property: covariance matrix is symmetric and has non-negative diagonal.
func TestCovarianceSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 3 + rng.Intn(10)
		cols := 1 + rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.NormFloat64()*10)
			}
		}
		cov, err := m.Covariance()
		if err != nil {
			return false
		}
		for a := 0; a < cols; a++ {
			if cov.At(a, a) < 0 {
				return false
			}
			for b := 0; b < cols; b++ {
				if math.Abs(cov.At(a, b)-cov.At(b, a)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: correlations are within [-1, 1].
func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 3 + rng.Intn(12)
		cols := 2 + rng.Intn(5)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Float64()*100-50)
			}
		}
		corr, err := m.Correlation()
		if err != nil {
			return false
		}
		for a := 0; a < cols; a++ {
			for b := 0; b < cols; b++ {
				v := corr.At(a, b)
				if v < -1-1e-9 || v > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixClone(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be independent of the original")
	}
}

func TestMatrixEqual(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}})
	b, _ := MatrixFromRows([][]float64{{1, 2.0000001}})
	if !a.Equal(b, 1e-5) {
		t.Fatal("matrices should be equal within tolerance")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("matrices should differ at tight tolerance")
	}
	c := NewMatrix(2, 1)
	if a.Equal(c, 1) {
		t.Fatal("different shapes must not be equal")
	}
}
