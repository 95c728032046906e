package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
)

// FuzzStoreOpen writes raw bytes as a snapshot file and opens it. Open
// must never panic. A snapshot it rejects leaves a usable empty store
// and an advisory error. A snapshot it loads keeps no key whose
// machine, workload or engine contains the ID separator '|', and a
// Save then Open of the loaded store reproduces its record count.
// Seeds live in testdata/fuzz/FuzzStoreOpen; `make fuzz` runs the
// target for a bounded time.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Path: path})
		if s == nil {
			t.Fatalf("Open returned a nil store (err %v)", err)
		}
		if err != nil {
			if n := s.Len(); n != 0 {
				t.Fatalf("rejected snapshot (%v) left %d records", err, n)
			}
			k := Key{Machine: "m", Workload: "w", Content: "c"}
			s.Put(k, &machine.RawCounts{Instructions: 1})
			if rc, ok := s.Get(k); !ok || rc.Instructions != 1 {
				t.Fatalf("store from a rejected snapshot (%v) is unusable", err)
			}
			return
		}
		check := func(k Key) {
			if strings.ContainsRune(k.Machine+k.Workload+k.Engine, '|') {
				t.Fatalf("loaded key %+v contains '|'", k)
			}
		}
		for k := range s.single.recs {
			check(k)
		}
		for k := range s.multi.recs {
			check(k)
		}
		s.cfg.Path = filepath.Join(dir, "resaved.json")
		if err := s.Save(); err != nil {
			t.Fatalf("saving a loaded store: %v", err)
		}
		again, err := Open(Config{Path: s.cfg.Path})
		if err != nil {
			t.Fatalf("reopening a saved store: %v", err)
		}
		if again.Len() != s.Len() {
			t.Fatalf("Save then Open: %d records, want %d", again.Len(), s.Len())
		}
	})
}
