package jobs

// Durability: job state rides the same snapshot discipline as the
// measurement store — a versioned JSON document replaced atomically
// (write-temp, fsync, rename) via store.AtomicWriteFile, so the file
// on disk is always a complete, parseable checkpoint no matter where
// the process died. Checkpoints are cheap relative to measurement
// (one MaxJobs-bounded document per item completion), so the manager
// writes one after every transition rather than batching on a timer.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/store"
)

// snapshotVersion gates snapshot compatibility; a mismatch discards
// the file (jobs are re-submittable; measurements live elsewhere).
const snapshotVersion = 1

type snapshotFile struct {
	Version int   `json:"version"`
	Jobs    []Job `json:"jobs"`
}

// checkpoint writes the full job table. Serialized by ckptMu so a
// slower older write can never land after (and clobber) a newer one.
func (m *Manager) checkpoint() {
	if m.cfg.Path == "" {
		return
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	data, err := m.encodeSnapshot()
	if err != nil {
		m.cfg.Log.Error("jobs: checkpoint marshal", "error", err.Error())
		return
	}
	if err := store.AtomicWriteFile(m.cfg.Path, data); err != nil {
		m.cfg.Log.Error("jobs: checkpoint write", "path", m.cfg.Path, "error", err.Error())
		return
	}
	m.met.checkpoints.Inc()
}

// encodeSnapshot returns the job table as a snapshot document.
func (m *Manager) encodeSnapshot() ([]byte, error) {
	m.mu.Lock()
	snap := snapshotFile{Version: snapshotVersion, Jobs: make([]Job, 0, len(m.order))}
	for _, id := range m.order {
		snap.Jobs = append(snap.Jobs, m.jobs[id].job.clone())
	}
	m.mu.Unlock()
	return json.MarshalIndent(snap, "", "  ")
}

// load restores the job table from cfg.Path. Jobs interrupted mid-run
// (state running, or items left running) revert to pending so Start
// re-enqueues them; completed items keep their status and are not
// re-measured. Missing file is a clean first boot.
func (m *Manager) load() error {
	data, err := os.ReadFile(m.cfg.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return m.restore(data)
}

// restore adds the jobs of a snapshot document to the table, as load
// describes. A document it rejects adds none.
func (m *Manager) restore(data []byte) error {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("version %d, want %d", snap.Version, snapshotVersion)
	}
	for i := range snap.Jobs {
		j := snap.Jobs[i]
		if j.ID == "" || len(j.Items) == 0 {
			continue // defensive: skip malformed entries
		}
		if _, dup := m.jobs[j.ID]; dup {
			continue
		}
		if !j.State.Terminal() {
			j.State = StatePending
			j.Started = nil
			j.Resumed = true
			for k := range j.Items {
				if j.Items[k].Status == ItemRunning {
					j.Items[k].Status = ItemPending
				}
			}
		}
		m.jobs[j.ID] = &tracked{job: j, subs: make(map[int]chan Event)}
		m.order = append(m.order, j.ID)
	}
	return nil
}
