package trace

import (
	"bufio"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const tailPoll = 5 * time.Millisecond

// tailLines starts a background line reader over a TailFile and returns a
// function that waits for the next line (without its newline) and one that
// waits for the reader to finish. TailFile is single-reader: tests must not
// touch tf again until stop returns.
func tailLines(t *testing.T, tf *TailFile) (next func() string, stop func()) {
	t.Helper()
	lines := make(chan string, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(tf)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next = func() string {
		t.Helper()
		for {
			select {
			case l := <-lines:
				// A rotation landing exactly on a line boundary makes the
				// resync newline an empty line; the lenient parser skips
				// those, and so do we.
				if l == "" {
					continue
				}
				return l
			case <-time.After(5 * time.Second):
				t.Fatal("timed out waiting for a tailed line")
				return ""
			}
		}
	}
	stop = func() { <-done }
	return next, stop
}

func appendLine(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTailFileFollowsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	appendLine(t, path, "one")
	ctx, cancel := context.WithCancel(context.Background())
	tf, err := NewTailFile(ctx, path, tailPoll)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	rotations := 0
	tf.OnRotate = func() { rotations++ }
	next, stop := tailLines(t, tf)
	if got := next(); got != "one" {
		t.Fatalf("first line = %q", got)
	}
	appendLine(t, path, "two")
	if got := next(); got != "two" {
		t.Fatalf("appended line = %q", got)
	}
	cancel()
	stop() // cancellation must surface EOF and end the scanner
	if rotations != 0 {
		t.Errorf("rotations = %d for a plain append stream", rotations)
	}
}

func TestTailFileSurvivesTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	appendLine(t, path, "old-1")
	appendLine(t, path, "old-2")
	ctx, cancel := context.WithCancel(context.Background())
	tf, err := NewTailFile(ctx, path, tailPoll)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	rotations := 0
	tf.OnRotate = func() { rotations++ }
	next, stop := tailLines(t, tf)
	if next() != "old-1" || next() != "old-2" {
		t.Fatal("did not read the pre-truncation lines")
	}
	// Operator zeroes the file in place to reclaim space.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendLine(t, path, "new-1")
	if got := next(); got != "new-1" {
		t.Fatalf("post-truncation line = %q", got)
	}
	cancel()
	stop()
	if rotations != 1 {
		t.Errorf("rotations = %d, want 1", rotations)
	}
}

func TestTailFileSurvivesRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obs.jsonl")
	appendLine(t, path, "old")
	ctx, cancel := context.WithCancel(context.Background())
	tf, err := NewTailFile(ctx, path, tailPoll)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	rotates := make(chan struct{}, 8)
	tf.OnRotate = func() { rotates <- struct{}{} }
	next, stop := tailLines(t, tf)
	if next() != "old" {
		t.Fatal("did not read the pre-rotation line")
	}
	// logrotate style: rename away, recreate at the same path.
	if err := os.Rename(path, filepath.Join(dir, "obs.jsonl.1")); err != nil {
		t.Fatal(err)
	}
	appendLine(t, path, "fresh")
	if got := next(); got != "fresh" {
		t.Fatalf("post-rotation line = %q", got)
	}
	select {
	case <-rotates:
	case <-time.After(5 * time.Second):
		t.Error("OnRotate hook not invoked")
	}
	cancel()
	stop()
}

// readFull drives tf.Read from the calling goroutine until want bytes have
// arrived, so tests control exactly where in the byte stream a rotation
// lands.
func readFull(t *testing.T, tf *TailFile, want int) string {
	t.Helper()
	buf := make([]byte, want)
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %d/%d bytes: %q", got, want, buf[:got])
		}
		n, err := tf.Read(buf[got:])
		if err != nil && err != io.EOF {
			t.Fatalf("Read: %v", err)
		}
		got += n
	}
	return string(buf)
}

// TestTailFileResyncsMidLineRotation: the head of a record delivered before
// its file vanished must become its own (malformed, skippable) line — never
// glued to the first line of the replacement file.
func TestTailFileResyncsMidLineRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obs.jsonl")
	// A complete line plus a torn head with no trailing newline.
	if err := os.WriteFile(path, []byte("complete\ntorn-head"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tf, err := NewTailFile(ctx, path, tailPoll)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	rotations := 0
	tf.OnRotate = func() { rotations++ }
	if got := readFull(t, tf, len("complete\ntorn-head")); got != "complete\ntorn-head" {
		t.Fatalf("pre-rotation bytes = %q", got)
	}
	// The torn head is consumed; now the file vanishes and a fresh one
	// appears. The tailer must inject a newline before the new content.
	if err := os.Rename(path, filepath.Join(dir, "obs.jsonl.1")); err != nil {
		t.Fatal(err)
	}
	appendLine(t, path, "first-new-line")
	if got := readFull(t, tf, len("\nfirst-new-line\n")); got != "\nfirst-new-line\n" {
		t.Fatalf("post-rotation bytes = %q, want the resync newline first", got)
	}
	if rotations == 0 {
		t.Error("rotation not counted")
	}
}

func TestTailFileWaitsOutRemoval(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obs.jsonl")
	appendLine(t, path, "before")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tf, err := NewTailFile(ctx, path, tailPoll)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if got := readFull(t, tf, len("before\n")); got != "before\n" {
		t.Fatalf("initial bytes = %q", got)
	}
	// Removed with no replacement: the tailer must keep polling, not error.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * tailPoll)
	appendLine(t, path, "after")
	// The removal counts as a rotation, so a resync newline precedes the
	// reappeared content.
	if got := readFull(t, tf, len("\nafter\n")); got != "\nafter\n" {
		t.Fatalf("bytes after reappearance = %q", got)
	}
}

func TestTailFileMissingAtOpen(t *testing.T) {
	if _, err := NewTailFile(context.Background(), filepath.Join(t.TempDir(), "absent.jsonl"), tailPoll); err == nil {
		t.Fatal("NewTailFile succeeded on a missing file")
	}
}
