package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// correlatedData builds n observations of 3 variables where x2 = 2*x0
// (perfectly correlated) and x1 is independent noise.
func correlatedData(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		m.Set(i, 0, x)
		m.Set(i, 1, rng.NormFloat64())
		m.Set(i, 2, 2*x)
	}
	return m
}

func TestFitPCACorrelatedVariables(t *testing.T) {
	m := correlatedData(200, 1)
	p, err := FitPCA(m, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly correlated pair collapses: eigenvalues ≈ {2, 1, 0}.
	if math.Abs(p.Eigenvalues[0]-2) > 0.15 {
		t.Fatalf("first eigenvalue %v, want ≈2", p.Eigenvalues[0])
	}
	if p.Eigenvalues[2] > 0.05 {
		t.Fatalf("last eigenvalue %v, want ≈0", p.Eigenvalues[2])
	}
	// The independent variable's sample eigenvalue fluctuates around 1,
	// so Kaiser retains either 1 or 2 components here — never all 3.
	if k := p.KaiserComponents(); k < 1 || k > 2 {
		t.Fatalf("Kaiser retained %d components, want 1 or 2", k)
	}
}

func TestFitPCAVarianceFractions(t *testing.T) {
	m := correlatedData(100, 2)
	p, err := FitPCA(m, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range p.VarExplained {
		if f < 0 {
			t.Fatalf("negative variance fraction %v", f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("variance fractions sum to %v, want 1", sum)
	}
	last := p.CumVarExplained[len(p.CumVarExplained)-1]
	if math.Abs(last-1) > 1e-9 {
		t.Fatalf("cumulative variance ends at %v, want 1", last)
	}
	if p.ComponentsForVariance(0.90) > 2 {
		t.Fatalf("90%% variance should need ≤2 components, got %d", p.ComponentsForVariance(0.90))
	}
}

func TestFitPCAScoresMatchProject(t *testing.T) {
	m := correlatedData(50, 3)
	p, err := FitPCA(m, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows(); i++ {
		proj := p.Project(m.Row(i))
		for k := range proj {
			if math.Abs(proj[k]-p.Scores[i][k]) > 1e-9 {
				t.Fatalf("score/projection mismatch row %d comp %d", i, k)
			}
		}
	}
}

func TestFitPCATooFewRows(t *testing.T) {
	m := NewMatrix(1, 5)
	if _, err := FitPCA(m, PCAOptions{}); err == nil {
		t.Fatal("expected error for a single observation")
	}
}

func TestFitPCANoVariance(t *testing.T) {
	m := NewMatrix(4, 3) // all zeros
	if _, err := FitPCA(m, PCAOptions{}); err == nil {
		t.Fatal("expected error for zero-variance data")
	}
}

func TestFitPCAConstantColumnTolerated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMatrix(30, 3)
	for i := 0; i < 30; i++ {
		m.Set(i, 0, rng.NormFloat64())
		m.Set(i, 1, 42) // constant metric
		m.Set(i, 2, rng.NormFloat64())
	}
	p, err := FitPCA(m, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Scores {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("scores must stay finite with constant columns")
			}
		}
	}
}

func TestFitPCACovarianceMode(t *testing.T) {
	// In covariance mode a high-variance variable dominates PC1.
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(100, 2)
	for i := 0; i < 100; i++ {
		m.Set(i, 0, rng.NormFloat64()*100)
		m.Set(i, 1, rng.NormFloat64())
	}
	p, err := FitPCA(m, PCAOptions{Covariance: true})
	if err != nil {
		t.Fatal(err)
	}
	dom := p.DominantVariables(0, 1)
	if dom[0] != 0 {
		t.Fatalf("covariance PCA PC1 dominated by variable %d, want 0", dom[0])
	}
}

func TestReducedScoresShapeAndWeighting(t *testing.T) {
	m := correlatedData(40, 6)
	p, err := FitPCA(m, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs := p.ReducedScores(2, false)
	if len(rs) != 40 || len(rs[0]) != 2 {
		t.Fatalf("ReducedScores shape %dx%d, want 40x2", len(rs), len(rs[0]))
	}
	w := p.ReducedScores(2, true)
	// First component weight is 1; second is scaled down by sqrt(λ2/λ1).
	ratio := math.Sqrt(p.Eigenvalues[1] / p.Eigenvalues[0])
	for i := range w {
		if math.Abs(w[i][0]-rs[i][0]) > 1e-12 {
			t.Fatal("first component must be unscaled")
		}
		if math.Abs(w[i][1]-rs[i][1]*ratio) > 1e-12 {
			t.Fatal("second component scaling wrong")
		}
	}
}

func TestReducedScoresPanicsOutOfRange(t *testing.T) {
	m := correlatedData(10, 7)
	p, _ := FitPCA(m, PCAOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	p.ReducedScores(0, false)
}

func TestKaiserAtLeastOne(t *testing.T) {
	// Two perfectly anti-correlated variables: eigenvalues {2, 0};
	// Kaiser must still retain at least one component. Build a case
	// where all eigenvalues < 1 is impossible for correlation PCA
	// (they sum to #vars), so test the guard directly.
	p := &PCA{Eigenvalues: []float64{0.9, 0.6, 0.5}}
	if p.KaiserComponents() != 1 {
		t.Fatalf("KaiserComponents = %d, want 1 (floor)", p.KaiserComponents())
	}
}

// Property: total variance of correlation-based PCA equals the number
// of non-constant variables, and scores have near-zero mean.
func TestPCAInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 10 + rng.Intn(40)
		cols := 2 + rng.Intn(5)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.NormFloat64()*float64(j+1))
			}
		}
		p, err := FitPCA(m, PCAOptions{})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range p.Eigenvalues {
			sum += v
		}
		if math.Abs(sum-float64(cols)) > 1e-6 {
			return false
		}
		for k := 0; k < cols; k++ {
			mean := 0.0
			for i := 0; i < rows; i++ {
				mean += p.Scores[i][k]
			}
			mean /= float64(rows)
			if math.Abs(mean) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDominantVariables(t *testing.T) {
	p := &PCA{Loadings: [][]float64{{0.1, -0.9, 0.3}}}
	dom := p.DominantVariables(0, 2)
	if dom[0] != 1 || dom[1] != 2 {
		t.Fatalf("DominantVariables = %v, want [1 2]", dom)
	}
}

func TestFitPCARejectsNonFinite(t *testing.T) {
	x := correlatedData(4, 3)
	x.Set(2, 1, math.Inf(1))
	_, err := FitPCA(x, PCAOptions{})
	if err == nil || !strings.Contains(err.Error(), "row 2, column 1") {
		t.Fatalf("FitPCA with +Inf at (2,1): err = %v, want an error naming row 2, column 1", err)
	}
}

// BenchmarkFitPCA fits PCA at the analysis pipeline's shape: 142
// metric columns over 10 and 13 programs.
func BenchmarkFitPCA(b *testing.B) {
	for _, rows := range []int{10, 13} {
		x := productionData(rows, 142, 1)
		b.Run(fmt.Sprintf("%dx142", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitPCA(x, PCAOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
