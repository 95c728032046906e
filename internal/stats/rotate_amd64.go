package stats

// rotate is rotateGo in SSE2, two elements per instruction: MULPD,
// SUBPD and ADDPD round each product and each sum as the Go loop does,
// so the two agree bit for bit. SSE2 is part of every amd64 CPU.
func rotate(x, y []float64, c, s float64) {
	rotateSSE2(x, y[:len(x)], c, s)
}

//go:noescape
func rotateSSE2(x, y []float64, c, s float64)
