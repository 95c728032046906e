package machine

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseConfigs decodes raw bytes as a machine-config file.
// ParseConfigs must never panic, and a file it accepts must come back
// unchanged from WriteConfigs then ParseConfigs. No fuzzed machine is
// run: New builds no simulator state, so accepting a huge geometry
// costs nothing here. Seeds live in testdata/fuzz/FuzzParseConfigs;
// `make fuzz` runs the target for a bounded time.
func FuzzParseConfigs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := ParseConfigs(bytes.NewReader(data))
		if err != nil {
			if ms != nil {
				t.Fatalf("rejected input (%v) returned %d machines", err, len(ms))
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteConfigs(&buf, ms); err != nil {
			t.Fatalf("accepted configs do not write: %v", err)
		}
		again, err := ParseConfigs(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written configs do not parse: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(ms) {
			t.Fatalf("round trip: %d machines, want %d", len(again), len(ms))
		}
		for i := range ms {
			if !reflect.DeepEqual(again[i].Config(), ms[i].Config()) {
				t.Fatalf("machine %d changed in round trip:\n got %+v\nwant %+v", i, again[i].Config(), ms[i].Config())
			}
		}
	})
}
