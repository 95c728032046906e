package cluster

import (
	"fmt"
	"strings"
)

// Render draws the dendrogram as ASCII art, one leaf per line, with
// merge brackets positioned horizontally by linkage height — a textual
// analogue of the paper's Figures 2–4, 7, 8, and 13. width is the
// number of columns used for the height axis (min 20).
func (d *Dendrogram) Render(width int) string {
	if d.Root == nil {
		return "(empty dendrogram)\n"
	}
	if width < 20 {
		width = 20
	}
	maxH := d.Root.Height
	if d.Root.IsLeaf() || maxH == 0 {
		var b strings.Builder
		for _, l := range d.Root.Leaves() {
			fmt.Fprintf(&b, "%s\n", d.Labels[l])
		}
		return b.String()
	}

	// Longest label, for the gutter.
	gutter := 0
	for _, l := range d.Labels {
		if len(l) > gutter {
			gutter = len(l)
		}
	}

	// Each leaf is a row; each node spans the rows of its leaves and
	// owns a column proportional to its height.
	type rowState struct {
		label string
		cells []byte
	}
	leaves := d.Root.Leaves()
	rowOf := make(map[int]int, len(leaves))
	rows := make([]rowState, len(leaves))
	for r, item := range leaves {
		rowOf[item] = r
		rows[r] = rowState{label: d.Labels[item], cells: bytesFill(width+1, ' ')}
	}

	col := func(h float64) int {
		c := int(h / maxH * float64(width))
		if c < 1 {
			c = 1
		}
		if c > width {
			c = width
		}
		return c
	}

	// extent returns the first and last row and the column at which the
	// subtree's horizontal branch line currently ends (its merge column,
	// or 0 for leaves).
	var draw func(n *Node) (top, bottom, mid, endCol int)
	draw = func(n *Node) (int, int, int, int) {
		if n.IsLeaf() {
			r := rowOf[n.Item]
			return r, r, r, 0
		}
		t1, b1, m1, e1 := draw(n.Left)
		t2, b2, m2, e2 := draw(n.Right)
		c := col(n.Height)
		// Horizontal lines from each child's end column to this merge column.
		for x := e1; x < c; x++ {
			if rows[m1].cells[x] == ' ' {
				rows[m1].cells[x] = '-'
			}
		}
		for x := e2; x < c; x++ {
			if rows[m2].cells[x] == ' ' {
				rows[m2].cells[x] = '-'
			}
		}
		// Vertical connector at the merge column.
		lo, hi := m1, m2
		if lo > hi {
			lo, hi = hi, lo
		}
		for y := lo; y <= hi; y++ {
			switch {
			case y == lo:
				rows[y].cells[c] = '+'
			case y == hi:
				rows[y].cells[c] = '+'
			default:
				if rows[y].cells[c] == ' ' {
					rows[y].cells[c] = '|'
				}
			}
		}
		return min(t1, t2), max(b1, b2), (lo + hi) / 2, c
	}
	_, _, mid, end := draw(d.Root)
	// Root stem.
	for x := end; x <= width; x++ {
		if rows[mid].cells[x] == ' ' {
			rows[mid].cells[x] = '-'
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  0%s%.3g\n", gutter, "linkage:", strings.Repeat(" ", width-len(fmt.Sprintf("%.3g", maxH))), maxH)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", gutter, r.label, string(r.cells))
	}
	return b.String()
}

func bytesFill(n int, c byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return b
}
