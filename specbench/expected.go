package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// defaultSeed is the seed expected.json was recorded with.
const defaultSeed = 1

// maxSeconds is the longest run length expected.json covers: the
// contract's largest run_seconds.
const maxSeconds = 60

// expectedJSON maps request paths to the SHA-256 of the "result" their
// responses must carry: every request in the default seed's sequences
// up to maxSeconds, which covers hot-cache's and warm-analysis's
// requests for every seed. Regenerate with --record only from a commit
// whose results are known good.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// recordExpected sends every distinct request of the default seed's
// sequences once, checking everything but the hashes, and prints the
// result hashes as expected.json.
func recordExpected(out io.Writer) error {
	leaves, keys, err := leafCount()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lb := newLoopback()
	defer lb.close()

	hashes := map[string]string{}
	for _, w := range allWorkloads {
		all, err := w.sequence(defaultSeed, w.requests(maxSeconds))
		if err != nil {
			return err
		}
		var paths []string
		for _, p := range all {
			if !slices.Contains(paths, p) {
				paths = append(paths, p)
			}
		}
		snapshot := ""
		if w.warm {
			snapshot = filepath.Join(dir, w.name+".json")
			if err := writeSnapshot(snapshot); err != nil {
				return err
			}
		}
		f, _, _, err := w.boot(lb, snapshot, nil)
		if err != nil {
			return err
		}
		chk := newChecker(w, leaves, keys, nil)
		p := runPass(f, chk, paths)
		f.close()
		if p.failed > 0 {
			return fmt.Errorf("%s: %s", w.name, strings.Join(p.reasons, "; "))
		}
		maps.Copy(hashes, chk.hashes)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(hashes)
}
