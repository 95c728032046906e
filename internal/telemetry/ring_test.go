package telemetry

import (
	"fmt"
	"testing"
)

// TestRingWraps adds past capacity and checks that the ring keeps the
// newest values, oldest-first, and that Len stops at capacity.
func TestRingWraps(t *testing.T) {
	for _, tc := range []struct {
		capacity, adds int
		want           string
	}{
		{1, 0, "[]"},
		{1, 1, "[0]"},
		{1, 4, "[3]"},
		{3, 2, "[0 1]"},
		{3, 3, "[0 1 2]"},
		{3, 4, "[1 2 3]"},
		{3, 7, "[4 5 6]"},
	} {
		r := NewRing[int](tc.capacity)
		for i := 0; i < tc.adds; i++ {
			r.Add(i)
		}
		got := r.Copy()
		if fmt.Sprint(got) != tc.want {
			t.Errorf("cap %d after %d adds: Copy = %v, want %s", tc.capacity, tc.adds, got, tc.want)
		}
		if r.Len() != len(got) {
			t.Errorf("cap %d after %d adds: Len = %d, want %d", tc.capacity, tc.adds, r.Len(), len(got))
		}
		// The copy is detached: writing it leaves the ring alone.
		if len(got) > 0 {
			got[0] = -1
			if r.Copy()[0] == -1 {
				t.Errorf("cap %d: Copy shares the ring's storage", tc.capacity)
			}
		}
	}
}
