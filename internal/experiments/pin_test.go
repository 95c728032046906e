package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
)

// analysisPinSHA256 is the SHA-256 of the JSON encodings of Table5 and
// Fig2 on an analytic-engine Lab at default fidelity, each followed by
// a newline. Both results come out of stats.EigenSym, so any change to
// the eigensolver (or anything else on the PCA/clustering path) that is
// not bit-identical moves this hash.
const analysisPinSHA256 = "a96af3f8193d79941c52884e544c6a9646eafdd76c9f1699a5cb319e206d05b2"

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
