package obs

import (
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestLogger(t *testing.T, b *strings.Builder, level slog.Level, format, component string) *slog.Logger {
	t.Helper()
	lg, err := NewLogger(b, level, format, component)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// afterTS checks that line starts with a UTC RFC 3339 ts field and returns
// the rest of the line.
func afterTS(t *testing.T, line string) string {
	t.Helper()
	ts, rest, ok := strings.Cut(strings.TrimPrefix(line, "ts="), " ")
	if !ok || !strings.HasPrefix(line, "ts=") {
		t.Fatalf("line %q does not start with ts=", line)
	}
	if at, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") {
		t.Fatalf("ts %q is not UTC RFC 3339 (%v, %v)", ts, at, err)
	}
	return rest
}

func TestLoggerLogfmt(t *testing.T) {
	var b strings.Builder
	lg := newTestLogger(t, &b, slog.LevelInfo, "logfmt", "resolver")
	lg.Info("serving", "listen", "127.0.0.1:5354", "retries", 3)
	want := "level=info msg=serving component=resolver listen=127.0.0.1:5354 retries=3\n"
	if got := afterTS(t, b.String()); got != want {
		t.Errorf("logfmt line:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerLogfmtQuoting(t *testing.T) {
	var b strings.Builder
	lg := newTestLogger(t, &b, slog.LevelInfo, "", "vantage")
	lg.Warn("chaos enabled", "rates", "loss=0.2 dup=0.01", "err", errors.New(`bad "thing"`))
	got := b.String()
	for _, frag := range []string{
		`msg="chaos enabled"`,
		`rates="loss=0.2 dup=0.01"`,
		`err="bad \"thing\""`,
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("line %q missing %q", got, frag)
		}
	}
}

// TestLoggerControlBytes pins that a value carrying a control byte — a
// landscape-server logs part of a remote vantage's HTTP body as err — is
// quoted and escaped, so it can neither break the line nor forge a field.
func TestLoggerControlBytes(t *testing.T) {
	for _, format := range []string{"logfmt", "json"} {
		var b strings.Builder
		lg := newTestLogger(t, &b, slog.LevelInfo, format, "landscape-server")
		lg.Error("pull failed", "err", "ok\rforged", "body", "a\nlevel=info")
		got := b.String()
		if strings.Count(got, "\n") != 1 || !strings.HasSuffix(got, "\n") || strings.ContainsRune(got, '\r') {
			t.Errorf("%s: raw control byte in line %q", format, got)
		}
		want := `err="ok\rforged"`
		if format == "json" {
			want = `"err":"ok\rforged"`
		}
		if !strings.Contains(got, want) {
			t.Errorf("%s: line %q missing %s", format, got, want)
		}
	}
}

func TestLoggerJSON(t *testing.T) {
	var b strings.Builder
	lg := newTestLogger(t, &b, slog.LevelInfo, "json", "vantage")
	lg.Error("write failed", "count", 2, "ok", false, "err", errors.New("disk full"))
	line := b.String()
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	ts, _ := got["ts"].(string)
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") {
		t.Errorf("ts %q is not UTC RFC 3339", ts)
	}
	delete(got, "ts")
	want := map[string]any{"level": "error", "msg": "write failed", "component": "vantage", "count": 2.0, "ok": false, "err": "disk full"}
	if len(got) != len(want) {
		t.Errorf("fields %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v (line %q)", k, got[k], v, line)
		}
	}
	// The field order is ts, level, msg, component, then the pairs.
	if !strings.Contains(line, `"level":"error","msg":"write failed","component":"vantage","count":2`) {
		t.Errorf("field order: %q", line)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var b strings.Builder
	lg := newTestLogger(t, &b, slog.LevelWarn, "logfmt", "x")
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	lg.Error("e")
	got := b.String()
	if strings.Contains(got, "msg=d") || strings.Contains(got, "msg=i") {
		t.Errorf("below-threshold lines emitted: %q", got)
	}
	if !strings.Contains(got, "level=warn msg=w") || !strings.Contains(got, "level=error msg=e") {
		t.Errorf("threshold lines missing: %q", got)
	}
}

func TestLoggerDerived(t *testing.T) {
	var b strings.Builder
	lg := newTestLogger(t, &b, slog.LevelInfo, "logfmt", "parent")
	lg.With("shard", 7).Info("hello", "extra", "x")
	want := "level=info msg=hello component=parent shard=7 extra=x\n"
	if got := afterTS(t, b.String()); got != want {
		t.Errorf("derived line:\n got %q\nwant %q", got, want)
	}
}

// TestLoggerConcurrentLines writes from several goroutines through one
// logger: every line must come out whole (run it under -race).
func TestLoggerConcurrentLines(t *testing.T) {
	const goroutines, lines = 8, 200
	// No lock around b: the handler must serialise its writes itself.
	var b strings.Builder
	lg := newTestLogger(t, &b, slog.LevelInfo, "json", "vantage")
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range lines {
				lg.Info("tick", "goroutine", g, "i", i, "pad", strings.Repeat("x", 64))
			}
		}()
	}
	wg.Wait()
	out := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(out) != goroutines*lines {
		t.Fatalf("%d lines, want %d", len(out), goroutines*lines)
	}
	for _, line := range out {
		var rec struct {
			Msg       string `json:"msg"`
			Component string `json:"component"`
			Pad       string `json:"pad"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Msg != "tick" || rec.Component != "vantage" || len(rec.Pad) != 64 {
			t.Fatalf("torn line %q (%v)", line, err)
		}
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
	for _, format := range []string{"logfmt", "JSON", ""} {
		if _, err := NewLogger(&strings.Builder{}, slog.LevelInfo, format, "x"); err != nil {
			t.Errorf("NewLogger(%q): %v", format, err)
		}
	}
	if _, err := NewLogger(&strings.Builder{}, slog.LevelInfo, "xml", "x"); err == nil {
		t.Error("NewLogger accepted format xml")
	}
}
