package trace

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"
)

// TailFile adapts a growing file to io.Reader semantics suitable for the
// incremental parsers: a read that hits EOF blocks, polling for new data,
// until the context is cancelled — at which point EOF is finally surfaced
// and the parser terminates cleanly on whatever was read. The line framing
// above it guarantees a torn final line (appender crashed mid-record) is
// only ever seen at shutdown, where lenient mode skips and counts it.
//
// It also survives the two things that happen to long-lived capture files
// in production — truncation in place (an operator zeroing the file to
// reclaim space) and rotation (the file renamed away and a fresh one
// created at the same path). A descriptor held across either has its
// offset past the new end, so it would block forever on the old inode;
// TailFile detects both cases at its EOF poll, reopens, and resumes from
// the top of the new content. This is `tail -F` as a composable reader.
//
// Resynchronisation: a rotation can land mid-line — TailFile may have
// already delivered the head of a record whose tail vanished with the old
// file. It injects a single synthetic newline before the new content, so
// the line framing above it sees the orphaned head as its own (malformed)
// line — skipped and counted under lenient parsing — instead of gluing it
// to the first line of the new file and silently corrupting one record.
//
// Records from before a truncation are gone: TailFile restores liveness,
// not history. The landscape keeps the state it already built from them;
// the reread starts at the new beginning of the file.
type TailFile struct {
	ctx  context.Context
	path string
	poll time.Duration

	// OnRotate, when non-nil, is invoked once per detected truncation or
	// replacement (metrics hook). Set before the first Read.
	OnRotate func()

	f         *os.File
	offset    int64
	pendingNL bool
}

// NewTailFile opens path for tailing from the start. poll <= 0 defaults to
// 200ms; a nil ctx means tail forever.
func NewTailFile(ctx context.Context, path string, poll time.Duration) (*TailFile, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	if ctx == nil {
		ctx = context.Background()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &TailFile{ctx: ctx, path: path, poll: poll, f: f}, nil
}

// Close releases the current file descriptor.
func (t *TailFile) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// Read implements io.Reader with EOF-as-wait semantics and rotation
// recovery. Cancellation surfaces EOF, terminating the parser cleanly.
func (t *TailFile) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if t.pendingNL {
			t.pendingNL = false
			p[0] = '\n'
			return 1, nil
		}
		if t.f != nil {
			n, err := t.f.Read(p)
			if n > 0 {
				t.offset += int64(n)
				return n, nil
			}
			if err != nil && err != io.EOF {
				return 0, err
			}
		}
		if err := t.check(); err != nil {
			return 0, err
		}
		if t.pendingNL {
			continue // rotation detected: deliver the resync newline now
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll):
		}
	}
}

// check runs at each EOF: detect in-place truncation (current size below
// our offset), replacement (path now names a different inode) or removal
// (wait for the path to reappear), and reopen as needed.
func (t *TailFile) check() error {
	if t.f == nil {
		f, err := os.Open(t.path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil // still rotating; keep polling
			}
			return fmt.Errorf("trace: reopening %s: %w", t.path, err)
		}
		t.f = f
		t.offset = 0
		return nil
	}
	if fi, err := t.f.Stat(); err == nil && fi.Size() < t.offset {
		// Truncated in place: rewind to the top of the new content.
		if _, err := t.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("trace: rewinding %s: %w", t.path, err)
		}
		t.offset = 0
		t.rotated()
		return nil
	}
	di, err := os.Stat(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Renamed away with no replacement yet: drop the old inode
			// (it can only shrink our world) and wait for the new file.
			t.f.Close()
			t.f = nil
			t.rotated()
			return nil
		}
		return fmt.Errorf("trace: stat %s: %w", t.path, err)
	}
	if fi, err2 := t.f.Stat(); err2 == nil && !os.SameFile(fi, di) {
		// Replaced: reopen the new inode from the start.
		t.f.Close()
		f, err := os.Open(t.path)
		if err != nil {
			t.f = nil
			if os.IsNotExist(err) {
				t.rotated()
				return nil
			}
			return fmt.Errorf("trace: reopening %s: %w", t.path, err)
		}
		t.f = f
		t.offset = 0
		t.rotated()
	}
	return nil
}

// rotated arms the resync newline and reports one survived rotation.
func (t *TailFile) rotated() {
	t.pendingNL = true
	if t.OnRotate != nil {
		t.OnRotate()
	}
}
