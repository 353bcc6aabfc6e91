package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// ParseLevel parses a level name ("debug", "info", "warn"/"warning",
// "error"), case-insensitively; the empty string is info.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// NewLogger returns the daemons' structured logger: lines at level or above,
// encoded as logfmt (format "logfmt" or "") or JSON (format "json"), with
// the fields ts (UTC, RFC 3339 nano), level (lower case), msg, component
// and then the call's key/value pairs. The handler serialises writes, so
// concurrent callers interleave whole lines.
func NewLogger(w io.Writer, level slog.Level, format, component string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if len(groups) > 0 {
			return a
		}
		switch a.Key {
		case slog.TimeKey:
			return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
		case slog.LevelKey:
			return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
		}
		return a
	}}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "logfmt", "":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want logfmt or json)", format)
	}
	return slog.New(h).With("component", component), nil
}
