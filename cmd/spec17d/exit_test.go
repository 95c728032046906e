package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestExitSavesFailingStoreOnce builds spec17d and runs it with a
// store it cannot write and a 1s checkpoint interval. After one
// request has stored records, SIGTERM drains it: the exit runs one
// save, which fails and logs one "persisting store" error, and the
// checkpointer's stop does not try that save again.
func TestExitSavesFailingStoreOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spec17d")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building spec17d: %v\n%s", err, out)
	}
	// The snapshot's directory is a plain file, so every save fails
	// (mode bits do not stop a process running as root).
	parent := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", filepath.Join(parent, "store.json"), "-checkpoint", "1s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var mu sync.Mutex
	var lines []string
	addr := make(chan string, 1)
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		serving := regexp.MustCompile(`msg=serving addr=(\S+)`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
			if m := serving.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatal("spec17d did not log its address")
	}
	resp, err := http.Get(base + "/v1/experiments/table1?engine=analytic&instructions=2000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table1: status %d", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-logged
	cmd.Wait()

	mu.Lock()
	defer mu.Unlock()
	log := strings.Join(lines, "\n")
	drain := strings.Index(log, `msg=draining`)
	if drain < 0 {
		t.Fatalf("no draining line:\n%s", log)
	}
	// A tick before the signal may fail on its own; the exit is what
	// is pinned.
	exit := log[drain:]
	if n := strings.Count(exit, `level=error msg="persisting store"`); n != 1 {
		t.Errorf("%d persisting store errors at exit, want 1:\n%s", n, log)
	}
	if n := strings.Count(exit, `msg="checkpoint failed"`); n != 0 {
		t.Errorf("%d checkpoint failures at exit, want 0:\n%s", n, log)
	}
}
