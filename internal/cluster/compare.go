package cluster

import (
	"fmt"
	"math"
)

// CopheneticCorrelation measures how similar two dendrograms are over
// a common set of items: the Pearson correlation between the two
// trees' cophenetic (merge-height) distances across all item pairs.
// 1 means the trees encode identical similarity structure; values
// near 0 mean unrelated structure.
//
// itemsA and itemsB give the observation indices to compare, pairing
// itemsA[i] with itemsB[i] (e.g. the rate and speed versions of the
// same benchmark family in two sub-suite dendrograms).
func CopheneticCorrelation(a, b *Dendrogram, itemsA, itemsB []int) (float64, error) {
	if len(itemsA) != len(itemsB) {
		return 0, fmt.Errorf("cluster: %d items vs %d items", len(itemsA), len(itemsB))
	}
	n := len(itemsA)
	if n < 3 {
		return 0, fmt.Errorf("cluster: cophenetic correlation needs at least 3 items, have %d", n)
	}
	var xs, ys []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da, err := a.CopheneticDistance(itemsA[i], itemsA[j])
			if err != nil {
				return 0, err
			}
			db, err := b.CopheneticDistance(itemsB[i], itemsB[j])
			if err != nil {
				return 0, err
			}
			xs = append(xs, da)
			ys = append(ys, db)
		}
	}
	return pearson(xs, ys)
}

func pearson(xs, ys []float64) (float64, error) {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("cluster: degenerate (constant) cophenetic distances")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
