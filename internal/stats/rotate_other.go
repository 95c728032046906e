//go:build !amd64

package stats

// rotate is rotateGo: only amd64 has an assembly kernel.
func rotate(x, y []float64, c, s float64) {
	rotateGo(x, y, c, s)
}
