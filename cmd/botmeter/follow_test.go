package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunFollowOneShot(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	if err := run([]string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-follow", "-json", "-top", "2",
	}); err != nil {
		t.Fatalf("follow: %v", err)
	}
}

func TestRunFollowWithListen(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	if err := run([]string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-follow", "-listen", "127.0.0.1:0",
	}); err != nil {
		t.Fatalf("follow with /landscape endpoint: %v", err)
	}
}

// TestRunFollowCheckpointResume: a -follow run with -checkpoint-dir leaves
// restorable generations behind; a second run with the same flags restores
// the newest one and replays only the tail, landing on the same landscape.
func TestRunFollowCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	ckDir := filepath.Join(dir, "ckpt")

	base := []string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-follow", "-json", "-checkpoint-dir", ckDir, "-checkpoint-every", "25",
	}
	first := runStdout(t, base)
	gens, err := filepath.Glob(filepath.Join(ckDir, "checkpoint-*.ckpt"))
	if err != nil || len(gens) == 0 {
		t.Fatalf("no checkpoint generations written: %v, %v", gens, err)
	}
	if resumed := runStdout(t, base); resumed != first {
		t.Errorf("resumed run printed\n%s\nthe first run\n%s", resumed, first)
	}

	// A directory with no checkpoints starts fresh rather than failing: a
	// first boot with recovery flags already set.
	empty := filepath.Join(dir, "empty-ckpt")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-follow", "-checkpoint-dir", empty,
	}); err != nil {
		t.Fatalf("resume with no checkpoint: %v", err)
	}
}

// TestRunFollowReplacedInputStartsFresh: a checkpoint cut further into the
// input than the input now holds was taken of another file. Resuming from it
// would skip records the new file never held and print the old file's
// landscape; recovery must start fresh instead, so the run prints what a run
// over the new file without -checkpoint-dir prints.
func TestRunFollowReplacedInputStartsFresh(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	ckDir := filepath.Join(dir, "ckpt")
	checkpointed := []string{
		"-family", "newgoz", "-seed", "1", "-in", in,
		"-follow", "-json", "-checkpoint-dir", ckDir, "-checkpoint-every", "100",
	}
	runStdout(t, checkpointed)

	// Replace the input with a shorter trace: its first third.
	data, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(in, []byte(strings.Join(lines[:len(lines)/3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	want := runStdout(t, []string{"-family", "newgoz", "-seed", "1", "-in", in, "-follow", "-json"})
	if got := runStdout(t, checkpointed); got != want {
		t.Errorf("-checkpoint-dir over a replaced input printed\n%s\nwant the new input's landscape\n%s", got, want)
	}
}

// runStdout runs botmeter with args and returns what it printed on stdout.
func runStdout(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = old
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunFollowValidation(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "obs.jsonl")
	writeTestTrace(t, in)
	if err := run([]string{"-family", "newgoz", "-in", in, "-follow", "-format", "bind"}); err == nil {
		t.Error("-follow with bind input should fail (not streamable)")
	}
	if err := run([]string{"-family", "newgoz", "-follow", "-checkpoint-dir", dir}); err == nil {
		t.Error("-checkpoint-dir over stdin should fail (not replayable)")
	}
	if err := run([]string{"-family", "newgoz", "-follow", "-live"}); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Errorf("-live over stdin: %v, want a refusal naming -in", err)
	}
}

// TestRunFollowWatch: -watch prints periodic status lines while streaming
// and the exit summary reports the ingest rate and final watermark lag.
func TestRunFollowWatch(t *testing.T) {
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdin, oldStderr := os.Stdin, os.Stderr
	os.Stdin, os.Stderr = inR, errW
	defer func() { os.Stdin, os.Stderr = oldStdin, oldStderr }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-family", "newgoz", "-seed", "1", "-follow", "-json",
			"-watch", "5ms", "-slo-freshness", "1h",
		})
	}()
	if _, err := io.WriteString(inW, `{"t":1000,"server":"ns1","domain":"example.com"}`+"\n"+
		`{"t":2000,"server":"ns1","domain":"example.com"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	// Keep the stream open long enough for several -watch ticks to fire.
	time.Sleep(60 * time.Millisecond)
	inW.Close()
	runErr := <-done
	errW.Close()
	out, readErr := io.ReadAll(errR)
	os.Stdin, os.Stderr = oldStdin, oldStderr
	if readErr != nil {
		t.Fatal(readErr)
	}
	if runErr != nil {
		t.Fatalf("follow with -watch: %v", runErr)
	}
	s := string(out)
	if !strings.Contains(s, "rec/s") {
		t.Errorf("no -watch status line on stderr:\n%s", s)
	}
	if !strings.Contains(s, "records/s") || !strings.Contains(s, "final watermark lag") {
		t.Errorf("exit summary missing rate or watermark lag:\n%s", s)
	}
}

func TestRunFollowEmptyInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(in, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "newgoz", "-in", in, "-follow"}); err == nil {
		t.Error("empty streamed trace should fail with a clear error")
	}
}
