package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"botmeter/internal/sim"
)

func rec(i int) ObservedRecord {
	return ObservedRecord{T: sim.Time(i), Server: "local0", Domain: fmt.Sprintf("d%03d.example", i)}
}

// manual returns a SafeWriter with every automatic flush disabled, so tests
// control exactly when bytes reach the underlying writer.
func manual(w *bytes.Buffer) *SafeWriter {
	return NewSafeWriter(w, SafeWriterConfig{FlushInterval: -1, FlushEvery: -1})
}

func TestSafeWriterFlushEvery(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSafeWriter(&buf, SafeWriterConfig{FlushInterval: -1, FlushEvery: 3})
	defer sw.Close()
	for i := 0; i < 2; i++ {
		if err := sw.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("flushed before the threshold: %q", buf.String())
	}
	if err := sw.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("after threshold: %d lines flushed, want 3", got)
	}
	if records, flushes, _ := sw.Stats(); records != 3 || flushes != 1 {
		t.Errorf("stats = %d records, %d flushes; want 3, 1", records, flushes)
	}
}

func TestSafeWriterFlushInterval(t *testing.T) {
	var buf safeBuffer
	sw := NewSafeWriter(&buf, SafeWriterConfig{FlushInterval: 10 * time.Millisecond, FlushEvery: -1})
	defer sw.Close()
	if err := sw.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(buf.String(), "d001.example") {
		t.Errorf("flushed bytes = %q", buf.String())
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer: the background flusher writes
// from its own goroutine, so the test must not race it.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
func (b *safeBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}
func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// failingWriter fails every write after the first n bytes worth of calls.
type failingWriter struct{ calls, failAfter int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.failAfter {
		return 0, errors.New("disk on fire")
	}
	return len(p), nil
}

// TestSafeWriterStickyError: the first failing flush poisons the writer —
// every subsequent Append surfaces the error immediately rather than
// deferring to Close.
func TestSafeWriterStickyError(t *testing.T) {
	w := &failingWriter{failAfter: 1}
	sw := NewSafeWriter(w, SafeWriterConfig{FlushInterval: -1, FlushEvery: 1})
	if err := sw.Append(rec(0)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	err := sw.Append(rec(1))
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("second append err = %v, want the write error", err)
	}
	if err2 := sw.Append(rec(2)); err2 == nil {
		t.Error("sticky error cleared itself")
	}
	if sw.Err() == nil {
		t.Error("Err() lost the sticky error")
	}
	if cerr := sw.Close(); cerr == nil {
		t.Error("Close() lost the sticky error")
	}
}

// TestSafeWriterAtomicFraming: every underlying Write call must be a whole
// number of complete JSONL lines, even when the buffer fills mid-record.
func TestSafeWriterAtomicFraming(t *testing.T) {
	var writes [][]byte
	w := writeFunc(func(p []byte) (int, error) {
		writes = append(writes, append([]byte(nil), p...))
		return len(p), nil
	})
	// Tiny buffer forces pre-flushes when the next line would not fit.
	sw := NewSafeWriter(w, SafeWriterConfig{FlushInterval: -1, FlushEvery: -1, BufferSize: 128})
	for i := 0; i < 50; i++ {
		if err := sw.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(writes) < 2 {
		t.Fatalf("buffer never pre-flushed (%d writes)", len(writes))
	}
	total := 0
	for i, p := range writes {
		if len(p) == 0 || p[len(p)-1] != '\n' {
			t.Errorf("write %d does not end on a line boundary: %q", i, p)
		}
		total += strings.Count(string(p), "\n")
	}
	if total != 50 {
		t.Errorf("lines written = %d, want 50", total)
	}
}

type writeFunc func(p []byte) (int, error)

func (f writeFunc) Write(p []byte) (int, error) { return f(p) }

func TestSafeWriterFsync(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "obs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw := NewSafeWriter(f, SafeWriterConfig{FlushInterval: -1, FlushEvery: 1, FsyncInterval: time.Nanosecond})
	if err := sw.Append(rec(7)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, syncs := sw.Stats(); syncs == 0 {
		t.Error("fsync interval elapsed but no sync happened")
	}
}

func TestTruncateTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obs.jsonl")

	// Missing file: nothing to repair.
	if n, err := TruncateTornTail(path); err != nil || n != 0 {
		t.Fatalf("missing file: %d, %v", n, err)
	}

	intact := `{"t":1,"server":"s0","domain":"a.example"}` + "\n" +
		`{"t":2,"server":"s0","domain":"b.example"}` + "\n"
	torn := intact + `{"t":3,"server":"s0","doma`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := TruncateTornTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(torn) - len(intact)); n != want {
		t.Errorf("removed %d bytes, want %d", n, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != intact {
		t.Errorf("repaired file = %q", got)
	}

	// Already clean: idempotent.
	if n, err := TruncateTornTail(path); err != nil || n != 0 {
		t.Errorf("clean file: %d, %v", n, err)
	}

	// A file that is one giant torn line (no newline at all) empties out.
	if err := os.WriteFile(path, []byte(strings.Repeat("x", 100_000)), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := TruncateTornTail(path); err != nil || n != 100_000 {
		t.Errorf("newline-free file: %d, %v", n, err)
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Errorf("file not emptied: %d bytes", st.Size())
	}

	// Empty file: no-op.
	if n, err := TruncateTornTail(path); err != nil || n != 0 {
		t.Errorf("empty file: %d, %v", n, err)
	}
}

// TestTornWriteRecovery is the end-to-end crash story: a capture whose
// final line is truncated mid-record and that contains one interior garbage
// line. The lenient reader returns every intact record and counts exactly
// the two bad lines; the strict reader refuses the file.
func TestTornWriteRecovery(t *testing.T) {
	var buf bytes.Buffer
	sw := manual(&buf)
	for i := 0; i < 5; i++ {
		if err := sw.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("capture = %d lines", len(lines))
	}
	// Corrupt line 3 and tear the final line mid-JSON.
	lines[2] = "!!corrupt log-rotation glue!!\n"
	last := lines[4]
	capture := strings.Join(lines[:4], "") + last[:len(last)/2]

	obs, res, err := ReadObserved(strings.NewReader(capture), ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if res.Skipped != 2 {
		t.Errorf("skipped = %d, want 2 (garbage line + torn tail)", res.Skipped)
	}
	if len(obs) != 3 || res.Records != 3 {
		t.Fatalf("records = %d/%d, want 3", len(obs), res.Records)
	}
	for i, want := range []int{0, 1, 3} {
		if obs[i].Domain != rec(want).Domain {
			t.Errorf("record %d = %+v, want domain %s", i, obs[i], rec(want).Domain)
		}
	}

	// Strict mode must refuse the same file.
	if _, _, err := ReadObserved(strings.NewReader(capture), ReadOptions{}); err == nil {
		t.Error("strict reader accepted a corrupt capture")
	}
}

// TestLenientJSONL: blank lines are neither records nor malformed, while a
// record without a domain and a garbage line each count as one skip.
func TestLenientJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteObservedJSONL(&buf, Observed{rec(1), rec(2)}); err != nil {
		t.Fatal(err)
	}
	corrupt := buf.String() + "\n  \r\n{\"t\":9}\ngarbage\n"
	out, res, err := ReadObserved(strings.NewReader(corrupt), ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || res.Records != 2 || res.Skipped != 2 {
		t.Errorf("records=%d/%d skipped=%d, want 2/2/2", len(out), res.Records, res.Skipped)
	}
	if _, _, err := ReadObserved(strings.NewReader(corrupt), ReadOptions{}); err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Errorf("strict read = %v, want an error at line 5", err)
	}
}

// TestSafeWriterTruncateRoundTrip: write through a SafeWriter to a real
// file, simulate a crash by appending half a record, recover, and confirm
// appends resume on a clean boundary.
func TestSafeWriterTruncateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obs.jsonl")

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSafeWriter(f, SafeWriterConfig{FlushInterval: -1, FlushEvery: 1})
	for i := 0; i < 3; i++ {
		if err := sw.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Crash mid-append.
	g, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte(`{"t":99,"ser`)); err != nil {
		t.Fatal(err)
	}
	g.Close()

	if n, err := TruncateTornTail(path); err != nil || n == 0 {
		t.Fatalf("recovery: %d, %v", n, err)
	}
	// Resume appending.
	h, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw2 := NewSafeWriter(h, SafeWriterConfig{FlushInterval: -1, FlushEvery: 1})
	if err := sw2.Append(rec(3)); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Close(); err != nil {
		t.Fatal(err)
	}
	h.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	obs, _, err := ReadObserved(bytes.NewReader(data), ReadOptions{})
	if err != nil {
		t.Fatalf("strict read after recovery: %v\n%q", err, data)
	}
	if len(obs) != 4 {
		t.Errorf("records = %d, want 4", len(obs))
	}
}

// TestSafeWriterStickyErrorStopsWrites: once the sticky error is set, the
// underlying writer must never see another byte — even via Flush or Close.
// cmd/vantage's checkpoint gate (PreSync = Flush + Err) relies on this: a
// poisoned writer cannot let a checkpoint record progress the durable file
// never made.
func TestSafeWriterStickyErrorStopsWrites(t *testing.T) {
	w := &failingWriter{failAfter: 1}
	sw := NewSafeWriter(w, SafeWriterConfig{FlushInterval: -1, FlushEvery: 1})
	if err := sw.Append(rec(0)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	sw.Append(rec(1)) //nolint:errcheck // poisons the writer
	callsAtPoison := w.calls
	sw.Append(rec(2)) //nolint:errcheck // rejected, must not retry the write
	sw.Flush()        //nolint:errcheck
	sw.Close()        //nolint:errcheck
	if w.calls != callsAtPoison {
		t.Fatalf("underlying writer saw %d calls after poisoning, want none (was %d, now %d)",
			w.calls-callsAtPoison, callsAtPoison, w.calls)
	}
	// Stats counts appended records (record 1 was accepted before its
	// flush failed); record 2 was rejected outright.
	if records, _, _ := sw.Stats(); records != 2 {
		t.Errorf("records = %d, want 2 appended", records)
	}
}

// TestTruncateTornTailChunkBoundaries: the backward newline scan works in
// 32 KiB chunks; exercise torn tails that span chunks and land exactly on
// chunk edges.
func TestTruncateTornTailChunkBoundaries(t *testing.T) {
	const chunk = 32 * 1024
	dir := t.TempDir()
	cases := []struct {
		name string
		keep int // bytes of intact, newline-terminated prefix
		torn int // bytes of torn tail after the last newline
	}{
		{"tail-spans-two-chunks", 100, chunk + 17},
		{"tail-exactly-one-chunk", 100, chunk},
		{"newline-at-chunk-edge", chunk, chunk},
		{"one-byte-tail", chunk + 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".jsonl")
			prefix := bytes.Repeat([]byte("x"), c.keep-1)
			prefix = append(prefix, '\n')
			data := append(prefix, bytes.Repeat([]byte("y"), c.torn)...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			n, err := TruncateTornTail(path)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(c.torn) {
				t.Errorf("removed %d bytes, want %d", n, c.torn)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(c.keep) {
				t.Errorf("size after repair = %d, want %d", st.Size(), c.keep)
			}
		})
	}
}

// TestTruncateTornTailTwice: crash, repair, append, crash again — the
// second repair must only drop the second torn tail.
func TestTruncateTornTailTwice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	line1 := `{"t":1,"server":"s0","domain":"a.example"}` + "\n"
	if err := os.WriteFile(path, []byte(line1+`{"t":2,"ser`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := TruncateTornTail(path); err != nil || n != 11 {
		t.Fatalf("first repair: %d, %v", n, err)
	}
	line2 := `{"t":2,"server":"s0","domain":"b.example"}` + "\n"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line2 + `{"t":3`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n, err := TruncateTornTail(path); err != nil || n != 6 {
		t.Fatalf("second repair: %d, %v", n, err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != line1+line2 {
		t.Errorf("after double repair = %q", got)
	}
}

// TestAppendObservedByteIdentical drives both entry points over a corpus
// spanning the fast path and every escape class that forces the Marshal
// fallback, asserting the output bytes cannot reveal which one ran.
func TestAppendObservedByteIdentical(t *testing.T) {
	cases := []ObservedRecord{
		{T: 0, Server: "local0", Domain: "abc.example"},
		{T: 123456789012, Server: "10.0.0.7", Domain: "x7f3k9.newgoz.biz"},
		{T: -5, Server: "s", Domain: ""},
		{T: 42, Server: "with\"quote", Domain: "plain.example"},
		{T: 42, Server: "back\\slash", Domain: "plain.example"},
		{T: 42, Server: "local0", Domain: "tab\there"},
		{T: 42, Server: "local0", Domain: "a<b"},
		{T: 42, Server: "a>b", Domain: "plain"},
		{T: 42, Server: "a&b", Domain: "plain"},
		{T: 42, Server: "local0", Domain: "ünïcode.example"},
		{T: 42, Server: "local0", Domain: "high\x80byte"},
		{T: 42, Server: "local0", Domain: "nul\x00byte"},
	}
	var viaAppend, viaFast bytes.Buffer
	a := manual(&viaAppend)
	f := manual(&viaFast)
	for _, c := range cases {
		if err := a.Append(c); err != nil {
			t.Fatal(err)
		}
		if err := f.AppendObserved(c.T, c.Server, c.Domain); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaAppend.Bytes(), viaFast.Bytes()) {
		t.Fatalf("encodings diverge:\nAppend:         %q\nAppendObserved: %q",
			viaAppend.String(), viaFast.String())
	}
}

func TestAppendObservedZeroAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	sw := manual(&buf)
	defer sw.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sw.AppendObserved(1754500000000, "192.168.7.31", "k3j9x0ab2.newgoz.biz"); err != nil {
			t.Fatal(err)
		}
	})
	// bytes.Buffer growth inside Flush is amortised noise; the append path
	// itself must not allocate.
	if allocs > 0.05 {
		t.Fatalf("AppendObserved allocates %.2f/op, want 0", allocs)
	}
}

func TestAppendObservedCountsAndFlushes(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSafeWriter(&buf, SafeWriterConfig{FlushInterval: -1, FlushEvery: 2})
	defer sw.Close()
	sw.AppendObserved(1, "s", "a.example")
	if buf.Len() != 0 {
		t.Fatalf("flushed before the threshold: %q", buf.String())
	}
	sw.AppendObserved(2, "s", "b.example")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("after threshold: %d lines flushed, want 2", got)
	}
	if records, flushes, _ := sw.Stats(); records != 2 || flushes != 1 {
		t.Fatalf("stats = %d records, %d flushes; want 2, 1", records, flushes)
	}
}

func TestAppendObservedSticky(t *testing.T) {
	sw := NewSafeWriter(&failingWriter{failAfter: 0}, SafeWriterConfig{FlushInterval: -1, FlushEvery: 1})
	defer sw.Close()
	if err := sw.AppendObserved(1, "s", "a.example"); err == nil {
		t.Fatal("first append: flush against a failing writer must error")
	}
	if err := sw.AppendObserved(2, "s", "b.example"); err == nil {
		t.Fatal("sticky error must surface on subsequent appends")
	}
}
