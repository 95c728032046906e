package jobs

import (
	"slices"
	"testing"
)

// FuzzJobsLoad loads raw bytes as a jobs snapshot into an empty
// Manager, through load's parser (restore), without the file: the
// target runs thousands of inputs a second instead of a few. Loading
// must never panic. A snapshot it rejects leaves the job table empty.
// A snapshot it loads keeps no job without an ID or items and no ID
// twice, and every non-terminal job resumes pending with no item left
// running. The loaded table's checkpoint document, loaded again,
// keeps the same IDs in the same order. Seeds live in
// testdata/fuzz/FuzzJobsLoad; `make fuzz` runs the target for a
// bounded time.
func FuzzJobsLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := New(quietCfg(okRunner))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.restore(data); err != nil {
			if len(m.jobs) != 0 || len(m.order) != 0 {
				t.Fatalf("rejected snapshot (%v) left %d jobs", err, len(m.jobs))
			}
			return
		}
		if len(m.jobs) != len(m.order) {
			t.Fatalf("%d jobs but %d ids in order", len(m.jobs), len(m.order))
		}
		seen := make(map[string]bool, len(m.order))
		for _, id := range m.order {
			if seen[id] {
				t.Fatalf("job %q loaded twice", id)
			}
			seen[id] = true
			tr, ok := m.jobs[id]
			if !ok {
				t.Fatalf("ordered id %q has no job", id)
			}
			j := tr.job
			if j.ID != id || j.ID == "" || len(j.Items) == 0 {
				t.Fatalf("loaded job %q under id %q with %d items", j.ID, id, len(j.Items))
			}
			if j.State.Terminal() {
				continue
			}
			if j.State != StatePending {
				t.Fatalf("non-terminal job %q resumes %q, want pending", id, j.State)
			}
			for _, it := range j.Items {
				if it.Status == ItemRunning {
					t.Fatalf("job %q resumes with item %q still running", id, it.ID)
				}
			}
		}

		ckpt, err := m.encodeSnapshot()
		if err != nil {
			t.Fatalf("checkpointing a loaded table: %v", err)
		}
		again, err := New(quietCfg(okRunner))
		if err != nil {
			t.Fatal(err)
		}
		if err := again.restore(ckpt); err != nil {
			t.Fatalf("loading a checkpoint: %v", err)
		}
		if !slices.Equal(again.order, m.order) {
			t.Fatalf("checkpoint then load: ids %q, want %q", again.order, m.order)
		}
	})
}
