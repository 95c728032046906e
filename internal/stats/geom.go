package stats

import (
	"math"
	"sort"
)

// Point is a point in the two-dimensional PC plane.
type Point struct {
	X, Y float64
}

// ConvexHull returns the convex hull of pts in counter-clockwise order
// using Andrew's monotone chain algorithm. Collinear points on the
// hull boundary are dropped. Degenerate inputs (fewer than 3 distinct
// points, or all collinear) return the reduced point set.
func ConvexHull(pts []Point) []Point {
	if len(pts) <= 2 {
		out := make([]Point, len(pts))
		copy(out, pts)
		return out
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		last := uniq[len(uniq)-1]
		if p != last {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) <= 2 {
		return ps
	}

	cross := func(o, a, b Point) float64 {
		return float64((a.X-o.X)*(b.Y-o.Y)) - float64((a.Y-o.Y)*(b.X-o.X))
	}
	var hull []Point
	// Lower hull.
	for _, p := range ps {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(ps) - 2; i >= 0; i-- {
		p := ps[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// PolygonArea returns the area of a simple polygon given its vertices
// in order (either orientation); the result is always non-negative.
func PolygonArea(poly []Point) float64 {
	if len(poly) < 3 {
		return 0
	}
	sum := 0.0
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		sum += float64(p.X*q.Y) - float64(q.X*p.Y)
	}
	return math.Abs(sum) / 2
}

// PointInPolygon reports whether p lies inside (or on the boundary of)
// the simple polygon poly, using the ray-crossing method with an
// explicit boundary check.
func PointInPolygon(p Point, poly []Point) bool {
	n := len(poly)
	if n == 0 {
		return false
	}
	if n == 1 {
		return p == poly[0]
	}
	const eps = 1e-12
	// Boundary check: p on segment (a,b)?
	onSeg := func(a, b Point) bool {
		cross := float64((b.X-a.X)*(p.Y-a.Y)) - float64((b.Y-a.Y)*(p.X-a.X))
		if math.Abs(cross) > eps*(1+math.Abs(b.X-a.X)+math.Abs(b.Y-a.Y)) {
			return false
		}
		dot := float64((p.X-a.X)*(b.X-a.X)) + float64((p.Y-a.Y)*(b.Y-a.Y))
		if dot < -eps {
			return false
		}
		sq := float64((b.X-a.X)*(b.X-a.X)) + float64((b.Y-a.Y)*(b.Y-a.Y))
		return dot <= sq+eps
	}
	inside := false
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		if onSeg(a, b) {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xint := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xint {
				inside = !inside
			}
		}
	}
	return inside
}

// HullArea is shorthand for PolygonArea(ConvexHull(pts)).
func HullArea(pts []Point) float64 {
	return PolygonArea(ConvexHull(pts))
}

// FractionOutside returns the fraction of pts that fall strictly
// outside the convex hull of ref. It implements the paper's
// "more than 25% of the CPU2017 benchmarks fall outside the space
// covered by the CPU2006 programs" measurement.
func FractionOutside(pts, ref []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	hull := ConvexHull(ref)
	out := 0
	for _, p := range pts {
		if !PointInPolygon(p, hull) {
			out++
		}
	}
	return float64(out) / float64(len(pts))
}

// Euclidean returns the Euclidean distance between two equal-length
// vectors. It panics on length mismatch: distance between vectors from
// different spaces is a programming error.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Euclidean distance between vectors of different lengths")
	}
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// GeoMean returns the geometric mean of xs. All inputs must be
// positive; SPEC-style scores always are.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
