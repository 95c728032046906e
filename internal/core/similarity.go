package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// SimilarityOptions configure the PCA + clustering pipeline.
type SimilarityOptions struct {
	// Metrics restricts the analysis to a metric group (nil = all of
	// Table III). Figure 9 uses counters.BranchMetrics, Figure 10 the
	// cache groups, Figure 12 counters.PowerMetrics.
	Metrics []counters.Metric
	// Machines restricts the fleet (nil = all machines measured).
	Machines []string
	// Linkage selects the clustering method; the zero value is
	// cluster.Single, but the paper's dendrograms use Ward — prefer
	// DefaultSimilarityOptions.
	Linkage cluster.Linkage
	// VarianceTarget, when positive, retains the smallest number of
	// PCs reaching that cumulative variance fraction instead of the
	// Kaiser criterion.
	VarianceTarget float64
	// UnweightedScores disables sqrt-eigenvalue weighting of the
	// reduced PC scores.
	UnweightedScores bool
}

// DefaultSimilarityOptions returns the paper's settings: all metrics,
// all machines, Ward linkage, Kaiser criterion, weighted scores.
func DefaultSimilarityOptions() SimilarityOptions {
	return SimilarityOptions{Linkage: cluster.Ward}
}

// Similarity is the fitted similarity space of a workload set.
type Similarity struct {
	// Labels are the analyzed workloads, in characterization order.
	Labels []string
	// PCA is the fitted transform; Columns names its input variables.
	PCA     *stats.PCA
	Columns []string
	// NumPCs is the retained component count (Kaiser or variance target).
	NumPCs int
	// Points are the workloads' reduced (and by default
	// variance-weighted) PC coordinates used for clustering.
	Points [][]float64
	// Dendrogram is the hierarchical clustering of Points.
	Dendrogram *cluster.Dendrogram
}

// Similarity runs the Section III pipeline on the characterization.
func (c *Characterization) Similarity(opts SimilarityOptions) (*Similarity, error) {
	return c.SimilarityCtx(context.Background(), opts)
}

// SimilarityCtx is Similarity carrying a context so the analysis
// stages land as "pca" and "cluster" spans on the request's trace.
// The pipeline itself never checks ctx, so the context is
// observability-only, although the analysis is not cheap: on a warm
// request every measurement is a store hit, and the PCA's
// eigendecomposition of a 142×142 correlation matrix (stats.EigenSym,
// ~13–17 ms per fit on one core) is most of the remaining time.
func (c *Characterization) SimilarityCtx(ctx context.Context, opts SimilarityOptions) (*Similarity, error) {
	matrix, cols, err := c.Matrix(opts.Metrics, opts.Machines)
	if err != nil {
		return nil, err
	}
	_, pcaSpan := telemetry.StartSpan(ctx, "pca",
		"rows", strconv.Itoa(len(c.Labels)), "columns", strconv.Itoa(len(cols)))
	pca, err := stats.FitPCA(matrix, stats.PCAOptions{})
	if err != nil {
		pcaSpan.End()
		return nil, fmt.Errorf("core: similarity PCA: %w", err)
	}
	k := pca.KaiserComponents()
	if opts.VarianceTarget > 0 {
		k = pca.ComponentsForVariance(opts.VarianceTarget)
	}
	if k > len(c.Labels)-1 && len(c.Labels) > 1 {
		// More PCs than degrees of freedom adds only noise dimensions.
		k = len(c.Labels) - 1
	}
	points := pca.ReducedScores(k, !opts.UnweightedScores)
	pcaSpan.End()
	_, clusterSpan := telemetry.StartSpan(ctx, "cluster",
		"points", strconv.Itoa(len(points)), "pcs", strconv.Itoa(k))
	dendro, err := cluster.Cluster(points, c.Labels, opts.Linkage)
	clusterSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: similarity clustering: %w", err)
	}
	return &Similarity{
		Labels:     append([]string(nil), c.Labels...),
		PCA:        pca,
		Columns:    cols,
		NumPCs:     k,
		Points:     points,
		Dendrogram: dendro,
	}, nil
}

// SubsetResult is a representative subset read off the dendrogram.
type SubsetResult struct {
	// Clusters lists each cluster's member labels.
	Clusters [][]string
	// Representatives holds one label per cluster (the member with
	// the smallest total distance to its cluster peers), sorted.
	Representatives []string
	// CutHeight is the linkage distance at which the dendrogram
	// yields exactly len(Clusters) clusters — the vertical line of
	// Figures 2-4.
	CutHeight float64
}

// Subset cuts the dendrogram into k clusters and picks representatives
// (Section IV-A).
func (s *Similarity) Subset(k int) SubsetResult {
	clusters := s.Dendrogram.CutToK(k)
	reps := s.Dendrogram.Representatives(clusters)
	res := SubsetResult{CutHeight: s.Dendrogram.HeightForK(k)}
	for _, cl := range clusters {
		names := make([]string, 0, len(cl))
		for _, idx := range cl {
			names = append(names, s.Labels[idx])
		}
		res.Clusters = append(res.Clusters, names)
	}
	for _, idx := range reps {
		res.Representatives = append(res.Representatives, s.Labels[idx])
	}
	sort.Strings(res.Representatives)
	return res
}

// MostDistinct returns the label that joins the dendrogram at the
// greatest linkage height — mcf among the INT benchmarks, cactuBSSN
// among FP, in the paper's data.
func (s *Similarity) MostDistinct() string {
	idx := s.Dendrogram.MostDistinct()
	if idx < 0 {
		return ""
	}
	return s.Labels[idx]
}

// PairDistance returns the cophenetic (dendrogram) distance between
// two labelled workloads.
func (s *Similarity) PairDistance(a, b string) (float64, error) {
	ia, err := s.index(a)
	if err != nil {
		return 0, err
	}
	ib, err := s.index(b)
	if err != nil {
		return 0, err
	}
	return s.Dendrogram.CopheneticDistance(ia, ib)
}

// EuclideanDistance returns the straight-line distance between two
// workloads in the reduced PC space.
func (s *Similarity) EuclideanDistance(a, b string) (float64, error) {
	ia, err := s.index(a)
	if err != nil {
		return 0, err
	}
	ib, err := s.index(b)
	if err != nil {
		return 0, err
	}
	return stats.Euclidean(s.Points[ia], s.Points[ib]), nil
}

func (s *Similarity) index(label string) (int, error) {
	for i, l := range s.Labels {
		if l == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: label %q not in similarity analysis", label)
}

// ScatterPoints projects every workload onto two principal components
// (0-based), producing the Figure 9/10/12 scatter coordinates.
func (s *Similarity) ScatterPoints(pcX, pcY int) ([]stats.Point, error) {
	if pcX < 0 || pcY < 0 || pcX >= len(s.PCA.Eigenvalues) || pcY >= len(s.PCA.Eigenvalues) {
		return nil, fmt.Errorf("core: PC pair (%d,%d) out of range [0,%d)", pcX, pcY, len(s.PCA.Eigenvalues))
	}
	pts := make([]stats.Point, len(s.Labels))
	for i := range s.Labels {
		pts[i] = stats.Point{X: s.PCA.Scores[i][pcX], Y: s.PCA.Scores[i][pcY]}
	}
	return pts, nil
}

// DominantColumns names the n input variables with the largest
// absolute loadings in component pc, for labelling scatter axes.
func (s *Similarity) DominantColumns(pc, n int) []string {
	idx := s.PCA.DominantVariables(pc, n)
	out := make([]string, 0, len(idx))
	for _, j := range idx {
		out = append(out, s.Columns[j])
	}
	return out
}

// NearestNeighbor returns, for each query label, its closest other
// label from the candidate set (by reduced-PC Euclidean distance) and
// that distance. Used for the coverage analysis of Section V-B and the
// input-set selection of Section IV-C.
func (s *Similarity) NearestNeighbor(queries, candidates []string) (map[string]string, map[string]float64, error) {
	nearest := make(map[string]string, len(queries))
	dist := make(map[string]float64, len(queries))
	for _, q := range queries {
		qi, err := s.index(q)
		if err != nil {
			return nil, nil, err
		}
		bestLabel, bestD := "", -1.0
		for _, cand := range candidates {
			if cand == q {
				continue
			}
			ci, err := s.index(cand)
			if err != nil {
				return nil, nil, err
			}
			d := stats.Euclidean(s.Points[qi], s.Points[ci])
			if bestD < 0 || d < bestD {
				bestLabel, bestD = cand, d
			}
		}
		if bestD < 0 {
			return nil, nil, fmt.Errorf("core: no candidates for query %q", q)
		}
		nearest[q] = bestLabel
		dist[q] = bestD
	}
	return nearest, dist, nil
}

// MedianPairwiseDistance returns the median distance between all pairs
// of the given labels in reduced PC space — the scale reference used
// to decide whether a removed benchmark is "covered".
func (s *Similarity) MedianPairwiseDistance(labels []string) (float64, error) {
	var ds []float64
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			d, err := s.EuclideanDistance(labels[i], labels[j])
			if err != nil {
				return 0, err
			}
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0, fmt.Errorf("core: need at least two labels")
	}
	sort.Float64s(ds)
	return ds[len(ds)/2], nil
}
