// Package cluster implements agglomerative hierarchical clustering and
// dendrogram analysis, the similarity machinery of Section III of the
// paper: programs are points in (PCA-reduced) metric space, merged
// bottom-up by linkage distance, and subsets are read off the
// dendrogram by cutting it at a chosen height.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Linkage selects how the distance between two clusters is derived
// from the pairwise distances of their members.
type Linkage int

const (
	// Single linkage: minimum pairwise distance (nearest neighbour).
	Single Linkage = iota
	// Complete linkage: maximum pairwise distance (furthest neighbour).
	Complete
	// Average linkage (UPGMA): unweighted mean pairwise distance.
	Average
	// Ward linkage: merge that minimizes the increase in total
	// within-cluster variance. This is the linkage used for all the
	// dendrograms in the paper's figures.
	Ward
)

// String returns the conventional name of the linkage method.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	case Ward:
		return "ward"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Node is a dendrogram node. Leaves have Left == Right == nil and a
// valid Item index; internal nodes carry the linkage Height at which
// their two children merged.
type Node struct {
	Item        int // leaf: index into the original observations; -1 for internal nodes
	Left, Right *Node
	Height      float64 // linkage distance at which Left and Right merged
	size        int
}

// IsLeaf reports whether the node is a single observation.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Size returns the number of leaves under the node.
func (n *Node) Size() int {
	if n.IsLeaf() {
		return 1
	}
	return n.size
}

// Leaves returns the observation indices under the node, left to right.
func (n *Node) Leaves() []int {
	var out []int
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m.Item)
			return
		}
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	return out
}

// Dendrogram is the result of hierarchical clustering of n observations.
type Dendrogram struct {
	// Root of the merge tree (nil when n == 0).
	Root *Node
	// Labels for each observation, used in rendering and reporting.
	Labels []string
	// Points are the observations in the clustered space; kept for
	// representative selection.
	Points [][]float64
	// Method is the linkage used.
	Method Linkage
}

// Cluster groups the points by agglomerative hierarchical clustering
// using Euclidean distance and the given linkage. labels must be the
// same length as points (or nil, in which case index labels are
// generated). All points must share the same dimensionality.
func Cluster(points [][]float64, labels []string, method Linkage) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	if labels == nil {
		labels = make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("#%d", i)
		}
	}
	if len(labels) != n {
		return nil, fmt.Errorf("cluster: %d labels for %d points", len(labels), n)
	}

	// Lance–Williams recurrence over an active-cluster distance matrix.
	type clusterState struct {
		node *Node
		size int
	}
	active := make([]*clusterState, 0, n)
	for i := 0; i < n; i++ {
		active = append(active, &clusterState{node: &Node{Item: i}, size: 1})
	}
	// dist[i][j] for i<j among active clusters, stored in a full
	// symmetric matrix for simplicity (n is ≤ ~100 in all our uses).
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := stats.Euclidean(points[i], points[j])
			if method == Ward {
				// Initialize with squared distance/2-style Ward metric
				// handled via the recurrence below; the standard
				// convention initializes with Euclidean distance.
				d = d * d
			}
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	remaining := n
	for remaining > 1 {
		// Find the closest active pair (ties broken by lowest index,
		// keeping results deterministic).
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if dist[i][j] < best {
					best = dist[i][j]
					bi, bj = i, j
				}
			}
		}

		height := best
		if method == Ward {
			// We carried squared distances through the recurrence;
			// report heights on the natural distance scale.
			height = math.Sqrt(best)
		}
		merged := &Node{
			Item:   -1,
			Left:   active[bi].node,
			Right:  active[bj].node,
			Height: height,
			size:   active[bi].size + active[bj].size,
		}

		si := float64(active[bi].size)
		sj := float64(active[bj].size)
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			dik := dist[bi][k]
			djk := dist[bj][k]
			var d float64
			switch method {
			case Single:
				d = math.Min(dik, djk)
			case Complete:
				d = math.Max(dik, djk)
			case Average:
				d = (float64(si*dik) + float64(sj*djk)) / (si + sj)
			case Ward:
				sk := float64(active[k].size)
				tot := si + sj + sk
				d = (float64((si+sk)*dik) + float64((sj+sk)*djk) - float64(sk*dist[bi][bj])) / tot
			default:
				return nil, fmt.Errorf("cluster: unknown linkage %v", method)
			}
			dist[bi][k] = d
			dist[k][bi] = d
		}

		active[bi] = &clusterState{node: merged, size: merged.size}
		alive[bj] = false
		remaining--
	}

	var root *Node
	for i := 0; i < n; i++ {
		if alive[i] {
			root = active[i].node
			break
		}
	}
	pts := make([][]float64, n)
	for i, p := range points {
		pts[i] = append([]float64(nil), p...)
	}
	return &Dendrogram{Root: root, Labels: append([]string(nil), labels...), Points: pts, Method: method}, nil
}

// CutToK cuts the dendrogram to exactly k clusters by undoing the
// k-1 highest merges. k is clamped to [1, number of leaves].
func (d *Dendrogram) CutToK(k int) [][]int {
	if d.Root == nil {
		return nil
	}
	n := d.Root.Size()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Maintain a max-heap-ish frontier: repeatedly split the frontier
	// node with the greatest height until we have k nodes.
	frontier := []*Node{d.Root}
	for len(frontier) < k {
		// Find the internal frontier node with max height.
		bi, best := -1, math.Inf(-1)
		for i, nd := range frontier {
			if !nd.IsLeaf() && nd.Height > best {
				best = nd.Height
				bi = i
			}
		}
		if bi == -1 {
			break // all leaves
		}
		nd := frontier[bi]
		frontier = append(frontier[:bi], frontier[bi+1:]...)
		frontier = append(frontier, nd.Left, nd.Right)
	}
	clusters := make([][]int, 0, len(frontier))
	for _, nd := range frontier {
		clusters = append(clusters, nd.Leaves())
	}
	sortClusters(clusters)
	return clusters
}

// HeightForK returns the linkage height at which the dendrogram first
// has exactly k clusters: cutting anywhere in [h, nextMergeHeight)
// yields k clusters. It returns 0 when k >= number of leaves.
func (d *Dendrogram) HeightForK(k int) float64 {
	heights := d.MergeHeights()
	// n leaves, n-1 merges sorted ascending. Cutting just below the
	// (n-k+1)-th highest merge gives k clusters.
	n := len(heights) + 1
	if k >= n {
		return 0
	}
	if k < 1 {
		k = 1
	}
	return heights[n-k-1]
}

// MergeHeights returns all internal merge heights sorted ascending.
func (d *Dendrogram) MergeHeights() []float64 {
	var hs []float64
	var walk func(*Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		hs = append(hs, n.Height)
		walk(n.Left)
		walk(n.Right)
	}
	walk(d.Root)
	sort.Float64s(hs)
	return hs
}

// CopheneticDistance returns the dendrogram (cophenetic) distance
// between observations i and j: the height of their lowest common
// ancestor. The paper's rate-vs-speed comparison reads exactly this
// quantity off Figures 7 and 8.
func (d *Dendrogram) CopheneticDistance(i, j int) (float64, error) {
	n := len(d.Labels)
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("cluster: index out of range (%d, %d) of %d", i, j, n)
	}
	if i == j {
		return 0, nil
	}
	var find func(nd *Node) (hasI, hasJ bool, h float64, done bool)
	find = func(nd *Node) (bool, bool, float64, bool) {
		if nd.IsLeaf() {
			return nd.Item == i, nd.Item == j, 0, false
		}
		li, lj, lh, ld := find(nd.Left)
		if ld {
			return true, true, lh, true
		}
		ri, rj, rh, rd := find(nd.Right)
		if rd {
			return true, true, rh, true
		}
		hasI := li || ri
		hasJ := lj || rj
		if hasI && hasJ {
			return true, true, nd.Height, true
		}
		return hasI, hasJ, 0, false
	}
	_, _, h, ok := find(d.Root)
	if !ok {
		return 0, fmt.Errorf("cluster: indices %d and %d not found under a common ancestor", i, j)
	}
	return h, nil
}

// Representatives picks one observation per cluster: the member whose
// total Euclidean distance to the rest of its cluster is smallest
// (for singleton clusters, the member itself). This realizes the
// paper's rule of choosing "the benchmark with the shortest linkage
// distance" as the cluster representative.
func (d *Dendrogram) Representatives(clusters [][]int) []int {
	reps := make([]int, 0, len(clusters))
	for _, c := range clusters {
		reps = append(reps, d.representative(c))
	}
	sort.Ints(reps)
	return reps
}

func (d *Dendrogram) representative(members []int) int {
	if len(members) == 1 {
		return members[0]
	}
	best, bestSum := members[0], math.Inf(1)
	for _, i := range members {
		sum := 0.0
		for _, j := range members {
			if i == j {
				continue
			}
			sum += stats.Euclidean(d.Points[i], d.Points[j])
		}
		if sum < bestSum || (sum == bestSum && i < best) {
			best, bestSum = i, sum
		}
	}
	return best
}

// MostDistinct returns the index of the observation that merges into
// the tree at the greatest height — the benchmark "with the most
// distinct performance features" in the paper's reading of the
// dendrograms. For every leaf the joining height is the height of its
// parent merge; the leaf whose parent height is maximal wins, with the
// deepest singleton branch preferred on ties.
func (d *Dendrogram) MostDistinct() int {
	if d.Root == nil {
		return -1
	}
	if d.Root.IsLeaf() {
		return d.Root.Item
	}
	bestItem, bestHeight := -1, math.Inf(-1)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		for _, child := range []*Node{n.Left, n.Right} {
			if child.IsLeaf() && n.Height > bestHeight {
				bestHeight = n.Height
				bestItem = child.Item
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(d.Root)
	return bestItem
}

// sortClusters orders each cluster's members ascending and the
// clusters themselves by first member, so output is deterministic.
func sortClusters(clusters [][]int) {
	for _, c := range clusters {
		sort.Ints(c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
}
