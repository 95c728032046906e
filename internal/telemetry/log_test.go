package telemetry

import (
	"errors"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestLogFormat: a line's time is UTC with millisecond precision even
// when the local zone is not, and its level is lowercase.
func TestLogFormat(t *testing.T) {
	defer func(loc *time.Location) { time.Local = loc }(time.Local)
	time.Local = time.FixedZone("EST", -5*3600)

	var b strings.Builder
	before := time.Now().Truncate(time.Millisecond)
	NewLogger(&b, LevelInfo).Info("serving", "addr", ":8417", "workers", 2)
	after := time.Now()

	line := b.String()
	re := regexp.MustCompile(`^time=(\S+) level=info msg=serving addr=:8417 workers=2\n$`)
	m := re.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("line = %q, want %s", line, re)
	}
	if !strings.HasSuffix(m[1], "Z") || len(m[1]) != len("2006-01-02T15:04:05.000Z") {
		t.Fatalf("time %q is not UTC with milliseconds", m[1])
	}
	at, err := time.Parse(time.RFC3339Nano, m[1])
	if err != nil || at.Before(before) || at.After(after) {
		t.Fatalf("time %q (%v) outside [%v, %v]", m[1], err, before.UTC(), after.UTC())
	}
}

func TestLogQuoting(t *testing.T) {
	var b strings.Builder
	NewLogger(&b, LevelInfo).Warn("bad thing happened",
		"err", errors.New(`parse "x": fail`), "eq", "a=b", "empty", "", "plain", "ok")
	got := b.String()
	for _, want := range []string{
		"level=warn",
		`msg="bad thing happened"`,
		`err="parse \"x\": fail"`,
		`eq="a=b"`,
		`empty=""`,
		" plain=ok\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("line %q missing %q", got, want)
		}
	}
}

func TestLogLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	got := b.String()
	if strings.Contains(got, "level=debug") || strings.Contains(got, "level=info") {
		t.Errorf("below-threshold lines emitted:\n%s", got)
	}
	if !strings.Contains(got, "level=warn msg=w\n") || !strings.Contains(got, "level=error msg=e\n") {
		t.Errorf("at-threshold lines missing:\n%s", got)
	}
}

func TestLogWith(t *testing.T) {
	var b strings.Builder
	NewLogger(&b, LevelInfo).With("component", "store").Info("loaded", "records", 7)
	if got := b.String(); !strings.HasSuffix(got, " level=info msg=loaded component=store records=7\n") {
		t.Errorf("With line = %q", got)
	}
}

// TestLogCallerTimeLevelKeys: a caller's own time and level attributes
// pass through as logged.
func TestLogCallerTimeLevelKeys(t *testing.T) {
	var b strings.Builder
	NewLogger(&b, LevelInfo).Info("alarm", "time", "soon", "level", "High")
	if got := b.String(); !strings.HasSuffix(got, " level=info msg=alarm time=soon level=High\n") {
		t.Errorf("line = %q", got)
	}
}
