package telemetry

import (
	"io"
	"log/slog"
	"strings"
)

// LevelInfo is the daemon's default minimum level, so a caller can
// build the default logger from this package alone.
const LevelInfo = slog.LevelInfo

// NewLogger returns a logger writing lines at or above min to w in the
// daemon's key=value format:
//
//	time=2026-08-06T12:00:00.000Z level=info msg=serving addr=:8417
//
// It is slog's text handler with the time in UTC and the level in
// lowercase; values holding spaces, quotes or '=' are quoted.
func NewLogger(w io.Writer, min slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level:       min,
		ReplaceAttr: replaceAttr,
	}))
}

func replaceAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	// A caller's own "time" or "level" attribute reaches here too, so
	// rewrite only values of the built-in kinds.
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			a.Value = slog.TimeValue(a.Value.Time().UTC())
		}
	case slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			a.Value = slog.StringValue(strings.ToLower(lv.String()))
		}
	}
	return a
}
