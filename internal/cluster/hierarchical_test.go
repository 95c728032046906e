package cluster

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// twoBlobs returns 6 points forming two well-separated groups of 3.
func twoBlobs() ([][]float64, []string) {
	pts := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, // blob A: 0,1,2
		{10, 10}, {10.1, 10}, {10, 10.1}, // blob B: 3,4,5
	}
	return pts, []string{"a0", "a1", "a2", "b0", "b1", "b2"}
}

func TestClusterTwoBlobs(t *testing.T) {
	pts, labels := twoBlobs()
	for _, method := range []Linkage{Single, Complete, Average, Ward} {
		d, err := Cluster(pts, labels, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		got := d.CutToK(2)
		want := [][]int{{0, 1, 2}, {3, 4, 5}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v linkage: CutToK(2) = %v, want %v", method, got, want)
		}
	}
}

func TestClusterSinglePoint(t *testing.T) {
	d, err := Cluster([][]float64{{1, 2}}, []string{"only"}, Ward)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Root.IsLeaf() || d.Root.Item != 0 {
		t.Fatal("single point must be a leaf root")
	}
	if got := d.CutToK(1); !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Fatalf("CutToK(1) = %v", got)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, nil, Ward); err == nil {
		t.Fatal("expected error for no points")
	}
	if _, err := Cluster([][]float64{{1}, {1, 2}}, nil, Ward); err == nil {
		t.Fatal("expected error for mismatched dimensions")
	}
	if _, err := Cluster([][]float64{{1}, {2}}, []string{"x"}, Ward); err == nil {
		t.Fatal("expected error for wrong label count")
	}
}

func TestHeightForK(t *testing.T) {
	pts, labels := twoBlobs()
	d, err := Cluster(pts, labels, Average)
	if err != nil {
		t.Fatal(err)
	}
	// A cut at HeightForK(k) yields CutToK(k)'s clusters: members of
	// one cluster merge at or below it, members of two above it.
	for k := 1; k < len(labels); k++ {
		h := d.HeightForK(k)
		clusterOf := make([]int, len(labels))
		for c, members := range d.CutToK(k) {
			for _, i := range members {
				clusterOf[i] = c
			}
		}
		for i := range labels {
			for j := i + 1; j < len(labels); j++ {
				dist, err := d.CopheneticDistance(i, j)
				if err != nil {
					t.Fatal(err)
				}
				if same := clusterOf[i] == clusterOf[j]; same != (dist <= h) {
					t.Fatalf("k=%d: %s and %s merge at %v against HeightForK %v, same cluster %v",
						k, labels[i], labels[j], dist, h, same)
				}
			}
		}
	}
	if d.HeightForK(6) != 0 {
		t.Fatal("HeightForK(n) must be 0")
	}
}

func TestMergeHeightsSortedAndCount(t *testing.T) {
	pts, labels := twoBlobs()
	d, _ := Cluster(pts, labels, Ward)
	hs := d.MergeHeights()
	if len(hs) != 5 {
		t.Fatalf("6 leaves should give 5 merges, got %d", len(hs))
	}
	for i := 1; i < len(hs); i++ {
		if hs[i] < hs[i-1] {
			t.Fatal("merge heights must be sorted ascending")
		}
	}
}

func TestCopheneticDistance(t *testing.T) {
	pts, labels := twoBlobs()
	d, _ := Cluster(pts, labels, Average)
	within, err := d.CopheneticDistance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	across, err := d.CopheneticDistance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if within >= across {
		t.Fatalf("within-blob cophenetic %v should be < across-blob %v", within, across)
	}
	if self, _ := d.CopheneticDistance(2, 2); self != 0 {
		t.Fatalf("self-distance = %v, want 0", self)
	}
	if _, err := d.CopheneticDistance(0, 99); err == nil {
		t.Fatal("expected range error")
	}
}

func TestRepresentatives(t *testing.T) {
	// Cluster {0,1,2}: point 1 is between 0 and 2, so it minimizes the
	// total distance to the others and must be the representative.
	pts := [][]float64{{0}, {1}, {2}, {100}}
	d, err := Cluster(pts, []string{"p0", "p1", "p2", "far"}, Average)
	if err != nil {
		t.Fatal(err)
	}
	clusters := d.CutToK(2)
	reps := d.Representatives(clusters)
	if !reflect.DeepEqual(reps, []int{1, 3}) {
		t.Fatalf("Representatives = %v, want [1 3]", reps)
	}
}

func TestMostDistinct(t *testing.T) {
	// Point 3 is far from the tight group, so it merges last.
	pts := [][]float64{{0}, {0.1}, {0.2}, {50}}
	d, err := Cluster(pts, []string{"a", "b", "c", "outlier"}, Ward)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MostDistinct(); got != 3 {
		t.Fatalf("MostDistinct = %d, want 3", got)
	}
}

func TestLinkageString(t *testing.T) {
	cases := map[Linkage]string{Single: "single", Complete: "complete", Average: "average", Ward: "ward", Linkage(9): "Linkage(9)"}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("Linkage(%d).String() = %q, want %q", int(l), l.String(), want)
		}
	}
}

func TestWardHeightsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	d, err := Cluster(pts, nil, Ward)
	if err != nil {
		t.Fatal(err)
	}
	// Ward (and average/complete on Euclidean data) produce monotone
	// dendrograms: parent height >= child height.
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.IsLeaf() {
			return true
		}
		for _, c := range []*Node{n.Left, n.Right} {
			if !c.IsLeaf() && c.Height > n.Height+1e-9 {
				return false
			}
			if !walk(c) {
				return false
			}
		}
		return true
	}
	if !walk(d.Root) {
		t.Fatal("Ward dendrogram heights not monotone")
	}
}

// Property: for any point set, CutToK(k) yields exactly k clusters that
// partition all indices.
func TestCutToKPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		d, err := Cluster(pts, nil, Ward)
		if err != nil {
			return false
		}
		for k := 1; k <= n; k++ {
			clusters := d.CutToK(k)
			if len(clusters) != k {
				return false
			}
			seen := make(map[int]bool)
			for _, c := range clusters {
				for _, i := range c {
					if seen[i] {
						return false
					}
					seen[i] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: cophenetic distance is symmetric and >= 0, and bounded by
// the root height.
func TestCopheneticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		d, err := Cluster(pts, nil, Average)
		if err != nil {
			return false
		}
		rootH := d.Root.Height
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dij, err := d.CopheneticDistance(i, j)
				if err != nil {
					return false
				}
				dji, err := d.CopheneticDistance(j, i)
				if err != nil {
					return false
				}
				if dij != dji || dij < 0 || dij > rootH+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderContainsAllLabels(t *testing.T) {
	pts, labels := twoBlobs()
	d, _ := Cluster(pts, labels, Ward)
	out := d.Render(40)
	for _, l := range labels {
		if !strings.Contains(out, l) {
			t.Fatalf("render output missing label %q:\n%s", l, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(labels)+1 { // header + one line per leaf
		t.Fatalf("render has %d lines, want %d", len(lines), len(labels)+1)
	}
}

func TestRenderSinglePoint(t *testing.T) {
	d, _ := Cluster([][]float64{{1}}, []string{"solo"}, Ward)
	out := d.Render(30)
	if !strings.Contains(out, "solo") {
		t.Fatalf("render = %q", out)
	}
}

func TestClusterDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([][]float64, 15)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	d1, _ := Cluster(pts, nil, Ward)
	d2, _ := Cluster(pts, nil, Ward)
	if d1.Render(40) != d2.Render(40) {
		t.Fatal("clustering must be deterministic")
	}
}
