package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

// TestTextRendersRegistry runs text mode for every experiment and
// checks that each registry title is printed as a framed header
// exactly once, in registry order.
func TestTextRendersRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := spec17([]string{"-engine", "analytic", "-instructions", "2000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	last := -1
	for _, d := range experiments.Registry() {
		rule := strings.Repeat("=", len(d.Title))
		framed := rule + "\n" + d.Title + "\n" + rule + "\n"
		if n := strings.Count(out, framed); n != 1 {
			t.Errorf("%s: framed header %q printed %d times, want 1", d.ID, d.Title, n)
			continue
		}
		at := strings.Index(out, framed)
		if at < last {
			t.Errorf("%s: header out of registry order", d.ID)
		}
		last = at
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := spec17([]string{"-exp", "table1,nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if want := experiments.UnknownIDError("nope").Error(); !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not contain %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

// TestUnrenderableResultFails: a result type with no text renderer
// fails the run with an error naming the experiment and the type.
func TestUnrenderableResultFails(t *testing.T) {
	d := experiments.Descriptor{ID: "mystery", Title: "Mystery", Run: func(*experiments.Lab) (any, error) {
		return struct{ X int }{}, nil
	}}
	err := runText(&bytes.Buffer{}, nil, []experiments.Descriptor{d}, 60)
	if err == nil {
		t.Fatal("runText succeeded on a result type with no renderer")
	}
	for _, want := range []string{"mystery", "struct { X int }"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestStoreRefusesFidelityAboveCap: with -store, a fidelity above
// store.MaxInstructions exits 2 with an error naming the cap and
// writes no snapshot, whose next load would refuse every record.
func TestStoreRefusesFidelityAboveCap(t *testing.T) {
	over := fmt.Sprint(store.MaxInstructions + 1)
	for _, flags := range [][]string{
		{"-instructions", over},
		{"-warmup", over},
		{"-instructions", over, "-warmup", over},
	} {
		path := filepath.Join(t.TempDir(), "s.json")
		args := append([]string{"-engine", "analytic", "-exp", "table1", "-store", path}, flags...)
		var stdout, stderr bytes.Buffer
		if code := spec17(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2; stderr:\n%s", flags, code, stderr.String())
		}
		if want := fmt.Sprint(store.MaxInstructions); !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not name the cap %s", flags, stderr.String(), want)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v: snapshot written (stat err %v)", flags, err)
		}
	}
}
