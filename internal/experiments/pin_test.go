package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

// analysisPinSHA256 is the SHA-256 of the JSON encodings of Table5 and
// Fig2 on an analytic-engine Lab at default fidelity, each followed by
// a newline. Both results come out of stats.EigenSym, so any change to
// the eigensolver (or anything else on the PCA/clustering path) that is
// not bit-identical moves this hash.
const analysisPinSHA256 = "a96af3f8193d79941c52884e544c6a9646eafdd76c9f1699a5cb319e206d05b2"

// Per-experiment pins on the same Lab: the SHA-256 of one result's
// JSON encoding followed by a newline. Table5, Table6 and
// RateSpeedTreeSimilarity analyse their sub-suites concurrently, so
// these hold the concurrent path to the serial one's bytes.
const (
	table5PinSHA256  = "fb8a5a442cc8d71c0d79776135438b6c7e8c7ea8b682a7ede17bdc5d627573e4"
	table6PinSHA256  = "e070b6e38c291da8977948fd9ffee9d307cba4d0b4ddcb8fb6920fc53f66dbf4"
	treeSimPinSHA256 = "cc512690a4f2e9204090669474a0f533cde9a4f5ca266eacd690a521279ecedb"
)

// reportPinSHA256 pins BuildReport on the same Lab: the SHA-256 of the
// whole report's JSON encoding followed by a newline. It holds the
// report that GET /v1/report and spec17 -json serve to the bytes of
// the experiments it bundles.
const reportPinSHA256 = "00e3d09d06529f8a795a7564ef6b19ec519552740e089af891c121440f90c980"

// Pins of the four registry experiments BuildReport leaves out, on the
// same Lab: the SHA-256 of the registry result's JSON encoding followed
// by a newline. With reportPinSHA256 they pin every registry id.
const (
	fig5PinSHA256           = "70aae0f7f211967b2768ed77047c49313d2bf1c65dbcb163607aa53cb02a1c51"
	fig6PinSHA256           = "62106d10f5bff3d7f37c26b1612ff5d2e8e2c5fea60e915bdf6318b69cd3ef92"
	table9ExtendedPinSHA256 = "15eb0f8673e2bac90da0e862772042a294c0b84a43fc9a7b35cdfdd5df455c64"
	noisePinSHA256          = "3c714b5c7bb814d9bbdb94214e822b7bbd4511f07095e927e0c63e4c1fc988cd"
)

func TestUnreportedRegistryPinned(t *testing.T) {
	lab := NewLabWithEngine(machine.RunOptions{}, nil, nil, engine.Analytic{})
	for _, pin := range []struct{ id, want string }{
		{"fig5", fig5PinSHA256},
		{"fig6", fig6PinSHA256},
		{"table9-extended", table9ExtendedPinSHA256},
		{"noise", noisePinSHA256},
	} {
		d, ok := Lookup(pin.id)
		if !ok {
			t.Fatalf("%s: not in the registry", pin.id)
		}
		v, err := d.Run(lab)
		if err != nil {
			t.Fatalf("%s: %v", pin.id, err)
		}
		if got := pinHash(t, v); got != pin.want {
			t.Errorf("%s JSON SHA-256 = %s, want %s", pin.id, got, pin.want)
		}
	}
}

func TestAnalysisOutputPinned(t *testing.T) {
	lab := NewLabWithEngine(machine.RunOptions{}, nil, nil, engine.Analytic{})
	t5, err := Table5(lab)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fig2(lab)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, v := range []any{t5, f2} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte("\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != analysisPinSHA256 {
		t.Fatalf("Table5+Fig2 JSON SHA-256 = %s, want %s", got, analysisPinSHA256)
	}
}

// pinHash is the SHA-256 of v's JSON encoding followed by a newline.
func pinHash(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(b, '\n'))
	return hex.EncodeToString(sum[:])
}

func TestSuiteAnalysesPinned(t *testing.T) {
	lab := NewLabWithEngine(machine.RunOptions{}, nil, nil, engine.Analytic{})
	for _, pin := range []struct {
		name string
		run  func(*Lab) (any, error)
		want string
	}{
		{"Table5", func(l *Lab) (any, error) { return Table5(l) }, table5PinSHA256},
		{"Table6", func(l *Lab) (any, error) { return Table6(l) }, table6PinSHA256},
		{"RateSpeedTreeSimilarity", func(l *Lab) (any, error) { return RateSpeedTreeSimilarity(l) }, treeSimPinSHA256},
	} {
		v, err := pin.run(lab)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		if got := pinHash(t, v); got != pin.want {
			t.Errorf("%s JSON SHA-256 = %s, want %s", pin.name, got, pin.want)
		}
	}
}

func TestReportPinned(t *testing.T) {
	lab := NewLabWithEngine(machine.RunOptions{}, nil, nil, engine.Analytic{})
	r, err := BuildReport(lab)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinHash(t, r); got != reportPinSHA256 {
		t.Errorf("BuildReport JSON SHA-256 = %s, want %s", got, reportPinSHA256)
	}
}

// TestTable5ColdThenWarmStore runs Table5 on a store- and
// scheduler-backed analytic Lab twice: cold, where each distinct key
// is estimated once, then on a fresh Lab over the now warm store, where
// every leaf is a store hit. Estimates take no scheduler slot, so
// neither pass starts a job. Both must match the store-less pin.
func TestTable5ColdThenWarmStore(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	leaves := int64(len(Entries()) * len(fleet))
	keys := make(map[store.Key]bool)
	for _, e := range Entries() {
		for _, m := range fleet {
			keys[store.KeyForEngine(m, e.Workload, machine.RunOptions{}, string(engine.TierAnalytic))] = true
		}
	}
	pool := sched.NewPool(2, nil)

	for _, pass := range []string{"cold", "warm"} {
		startedBefore, before := pool.Stats().Started, st.Stats()
		lab := NewLabWithEngine(machine.RunOptions{}, st, pool.Queue(0), engine.Analytic{})
		rows, err := Table5(lab)
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if got := pinHash(t, rows); got != table5PinSHA256 {
			t.Errorf("%s Table5 JSON SHA-256 = %s, want %s", pass, got, table5PinSHA256)
		}
		if started := pool.Stats().Started - startedBefore; started != 0 {
			t.Errorf("%s pass started %d scheduler jobs, want 0", pass, started)
		}
		hits, misses := st.Stats().Hits-before.Hits, st.Stats().Misses-before.Misses
		switch pass {
		case "cold":
			if misses != int64(len(keys)) {
				t.Errorf("cold pass store misses = %d, want %d (one per distinct key)", misses, len(keys))
			}
		case "warm":
			if hits != leaves {
				t.Errorf("warm pass store hits = %d, want %d (one per leaf)", hits, leaves)
			}
		}
	}
}

// TestPerSuiteOrder: results come back in suite order whatever order
// the goroutines finish in, and the reported error is the first
// failing suite's in suite order, not the first to fail in time.
func TestPerSuiteOrder(t *testing.T) {
	suites := []workloads.Suite{workloads.SpeedINT, workloads.RateINT, workloads.SpeedFP, workloads.RateFP}
	// Earlier suites finish later.
	delay := func(i int) { time.Sleep(time.Duration(len(suites)-i) * 5 * time.Millisecond) }
	index := map[workloads.Suite]int{}
	for i, s := range suites {
		index[s] = i
	}

	got, err := perSuite(suites, func(s workloads.Suite) (string, error) {
		delay(index[s])
		return s.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range suites {
		if got[i] != s.String() {
			t.Errorf("result %d = %q, want %q", i, got[i], s.String())
		}
	}

	// RateINT fails last in time, RateFP first; RateINT's error wins.
	errFor := map[workloads.Suite]error{
		workloads.RateINT: errors.New("rate-int failed"),
		workloads.RateFP:  errors.New("rate-fp failed"),
	}
	got, err = perSuite(suites, func(s workloads.Suite) (string, error) {
		delay(index[s])
		return s.String(), errFor[s]
	})
	if !errors.Is(err, errFor[workloads.RateINT]) {
		t.Errorf("err = %v, want %v", err, errFor[workloads.RateINT])
	}
	if got != nil {
		t.Errorf("results on error = %v, want nil", got)
	}
}
