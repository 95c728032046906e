package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestCharacterizeParallelDeterministic checks that the fleet fan-out
// is invisible in the results: a serial characterization and maximally
// parallel ones produce identical labels, machine order, and matrices.
func TestCharacterizeParallelDeterministic(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for _, p := range workloads.CPU2017()[:3] {
		entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
	}
	base := machine.RunOptions{Instructions: 2_000, WarmupInstructions: 400}

	var mats [][]float64
	var labels [][]string
	for _, par := range []int{1, 0, 16} {
		opts := base
		opts.Parallelism = par
		c, err := CharacterizeWith(context.Background(), entries, fleet, opts, nil, nil, nil)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		m, cols, err := c.Matrix(nil, nil)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(cols) == 0 {
			t.Fatalf("parallelism %d: no columns", par)
		}
		flat := make([]float64, 0, m.Rows()*m.Cols())
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				flat = append(flat, m.At(i, j))
			}
		}
		mats = append(mats, flat)
		labels = append(labels, c.Labels)
	}
	for i := 1; i < len(mats); i++ {
		if !reflect.DeepEqual(labels[0], labels[i]) {
			t.Errorf("label order differs between parallelism settings:\n%v\n%v", labels[0], labels[i])
		}
		if !reflect.DeepEqual(mats[0], mats[i]) {
			t.Errorf("matrix %d differs from serial result", i)
		}
	}
}
