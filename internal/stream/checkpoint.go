package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"botmeter/internal/faults"
	"botmeter/internal/obs"
)

// Checkpoint metric families (see CheckpointConfig.Registry).
const (
	MetricCheckpoints        = "stream_checkpoints_total"
	MetricCheckpointErrors   = "stream_checkpoint_errors_total"
	MetricCheckpointSkipped  = "stream_checkpoint_skipped_total"
	MetricCheckpointGen      = "stream_checkpoint_generation"
	MetricCheckpointBytes    = "stream_checkpoint_bytes"
	MetricCheckpointDuration = "stream_checkpoint_duration_ms"
	MetricCheckpointAge      = "stream_checkpoint_last_unix_ms"
	// MetricCheckpointAgeSeconds is a callback gauge: seconds since the last
	// successful checkpoint completed (since the Checkpointer was created,
	// before the first) — the recovery-point-objective signal, evaluated at
	// scrape time so it ages even when checkpoints stall.
	MetricCheckpointAgeSeconds = "stream_checkpoint_age_seconds"
)

// Checkpoint file format (DESIGN.md §15): a fixed 48-byte header followed
// by the binary encoding of an EngineState (statecodec.go).
//
//	offset  size  field
//	     0     4  magic "BMCP"
//	     4     4  format version (big-endian uint32)
//	     8     8  payload length (big-endian uint64)
//	    16    32  SHA-256 of the payload
//	    48     …  payload (EngineState, format version 7)
//
// The checksum plus length makes torn or bit-flipped files detectable
// before the payload decoder sees them; the version makes format evolution
// an explicit migration instead of a decode surprise. The same frame is what
// a vantage's /state serves and a landscape-server's /push accepts. Files are
// written to a temp name, fsynced, then renamed into place (with a directory
// fsync), so a final-name checkpoint is complete on any POSIX filesystem — a
// crash mid-write leaves only a .tmp- file, which recovery ignores and the
// next successful checkpoint sweeps away.
const (
	checkpointMagic = "BMCP"
	// checkpointVersion 7: a server holds its tally, closed epochs and open
	// cells, and no distinct-domain set (version 6 kept that set as a
	// delta-coded list of (epoch, position) keys, version 5 as sorted names;
	// both had the same cells: one statistic per estimator of the set in an
	// open cell, one value per estimator in a closed epoch, and the set
	// named in the fingerprint; version 4 had one estimator per cell plus an
	// optional MT second opinion beside it; version 3, the first binary
	// payload, still had a record list for estimators that did not stream).
	// There is one reader: an older file is rejected by version, recovery
	// reports no loadable checkpoint and the daemon replays its trace, which
	// is the durable log (the rule version 2 set when estimator state moved
	// into the cells).
	checkpointVersion = 7
	checkpointHeader  = 48
	checkpointPrefix  = "checkpoint-"
	checkpointExt     = ".ckpt"
	checkpointTmpPre  = ".tmp-"
)

// EncodeCheckpoint frames st in the checkpoint file format. The error is
// always nil: the signature is older than the codec, which cannot fail.
func EncodeCheckpoint(st *EngineState) ([]byte, error) {
	return appendCheckpoint(nil, st), nil
}

// appendCheckpoint writes st's frame over buf's storage, growing it at most
// once: the payload is measured first and encoded in place behind the header.
func appendCheckpoint(buf []byte, st *EngineState) []byte {
	buf = slices.Grow(buf[:0], checkpointHeader+stateSize(st))[:checkpointHeader]
	buf = appendState(buf, st)
	payload := buf[checkpointHeader:]
	copy(buf[0:4], checkpointMagic)
	binary.BigEndian.PutUint32(buf[4:8], checkpointVersion)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:48], sum[:])
	return buf
}

// DecodeCheckpoint verifies the framing and checksum and decodes the
// state. Any deviation — short file, bad magic, unknown version, length
// mismatch, checksum mismatch, a payload the decoder refuses — is an error,
// which LoadCheckpoint treats as "this generation is torn or corrupt, fall
// back".
func DecodeCheckpoint(data []byte) (*EngineState, error) {
	if len(data) < checkpointHeader {
		return nil, fmt.Errorf("stream: checkpoint truncated: %d bytes < %d-byte header", len(data), checkpointHeader)
	}
	if string(data[0:4]) != checkpointMagic {
		return nil, fmt.Errorf("stream: bad checkpoint magic %q", data[0:4])
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("stream: unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	n := binary.BigEndian.Uint64(data[8:16])
	if uint64(len(data)-checkpointHeader) != n {
		return nil, fmt.Errorf("stream: checkpoint payload is %d bytes, header says %d", len(data)-checkpointHeader, n)
	}
	sum := sha256.Sum256(data[checkpointHeader:])
	if string(sum[:]) != string(data[16:48]) {
		return nil, fmt.Errorf("stream: checkpoint checksum mismatch")
	}
	st, err := decodeState(data[checkpointHeader:])
	if err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	return st, nil
}

// CheckpointPath names generation gen inside dir.
func CheckpointPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", checkpointPrefix, gen, checkpointExt))
}

// parseGen extracts the generation from a checkpoint file name.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointExt) {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(checkpointPrefix):len(name)-len(checkpointExt)], 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// RecoveryInfo reports what LoadCheckpoint or RestoreLatest found.
type RecoveryInfo struct {
	// Found reports whether any loadable checkpoint existed.
	Found bool
	// Gen and Path identify the generation loaded (when Found).
	Gen  uint64
	Path string
	// Records is the source offset to replay from: the generation's
	// Source.Records when Found, 0 for a fresh start.
	Records uint64
	// CorruptSkipped counts newer generations that were skipped as torn or
	// corrupt before a good one decoded; SkipErr is why the newest of them
	// was — an older format version reads "unsupported checkpoint version".
	CorruptSkipped int
	SkipErr        error
	// Stale reports that recovery stopped at generation Gen, restoring
	// nothing (the engine is fresh), because it was cut further into the
	// source file than the file is long now (see RestoreLatest).
	Stale bool
}

// String renders the info for logs and /healthz.
func (r RecoveryInfo) String() string {
	if !r.Found {
		if r.Stale {
			return fmt.Sprintf("checkpoint generation %d is newer than its source file", r.Gen)
		}
		if r.CorruptSkipped > 0 {
			return fmt.Sprintf("no loadable checkpoint (%d generation(s) skipped, newest: %v)", r.CorruptSkipped, r.SkipErr)
		}
		return "no checkpoint"
	}
	s := fmt.Sprintf("recovered from checkpoint generation %d", r.Gen)
	if r.CorruptSkipped > 0 {
		s += fmt.Sprintf(" (%d corrupt generation(s) skipped)", r.CorruptSkipped)
	}
	return s
}

// LoadCheckpoint returns the newest decodable checkpoint in dir, falling
// back generation by generation past torn or corrupt files. A missing or
// empty directory is not an error — it means "start fresh" (Found false).
// An error is only returned for environmental failures (unreadable
// directory) so callers can distinguish "nothing to recover" from "cannot
// tell".
func LoadCheckpoint(dir string) (*EngineState, RecoveryInfo, error) {
	return loadCheckpoint(dir, func(*EngineState) error { return nil })
}

// RestoreLatest is how an engine resumes (DESIGN.md §15): it returns the
// engine to feed source to from info.Records on (Follow/FollowFile with
// SkipRecords). That is the engine restored from the newest checkpoint in dir
// that is good under cfg — it decodes (LoadCheckpoint's rule) and Restore
// takes it — or, when there is none, a fresh New(cfg) with Records 0. A
// generation Restore refuses — an estimator state of the wrong family, a name
// the epoch's matcher does not hold — is skipped and counted like a torn one.
// The exception is a FingerprintMismatchError: that is the operator's
// configuration, no older generation would fare better, and it is returned at
// once, with no engine.
//
// source, when non-empty, is the file the caller will replay from the
// checkpoint's offset. A generation cut at more bytes of it (Source.Bytes)
// than it holds now was taken of a file since truncated or replaced: it and
// everything older is stale, and the walk ends there with Stale set — before
// an engine exists, so none but the fresh one is left in cfg.Registry.
func RestoreLatest(cfg Config, dir, source string) (*Engine, RecoveryInfo, error) {
	var eng *Engine
	_, info, err := loadCheckpoint(dir, func(st *EngineState) (err error) {
		if source != "" && st.Source.Bytes > 0 {
			if fi, statErr := os.Stat(source); statErr != nil || fi.Size() < st.Source.Bytes {
				return errStale
			}
		}
		eng, err = Restore(cfg, st)
		return err
	})
	if err != nil || info.Found {
		return eng, info, err
	}
	eng, err = New(cfg)
	return eng, info, err
}

var errStale = errors.New("stream: checkpoint is newer than its source file")

// loadCheckpoint walks dir's generations newest first and returns the first
// that decodes and that use accepts.
func loadCheckpoint(dir string, use func(*EngineState) error) (*EngineState, RecoveryInfo, error) {
	var info RecoveryInfo
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, info, nil
		}
		return nil, info, fmt.Errorf("stream: reading checkpoint dir: %w", err)
	}
	gens := make([]uint64, 0, len(entries))
	for _, ent := range entries {
		if gen, ok := parseGen(ent.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	skip := func(err error) {
		if info.CorruptSkipped == 0 {
			info.SkipErr = err
		}
		info.CorruptSkipped++
	}
	for _, gen := range gens {
		path := CheckpointPath(dir, gen)
		data, err := os.ReadFile(path)
		if err != nil {
			skip(err)
			continue
		}
		st, err := DecodeCheckpoint(data)
		if err != nil {
			skip(err)
			continue
		}
		if err := use(st); err != nil {
			var mismatch *FingerprintMismatchError
			if errors.As(err, &mismatch) {
				return nil, info, err
			}
			if errors.Is(err, errStale) {
				info.Stale, info.Gen = true, gen
				return nil, info, nil
			}
			skip(err)
			continue
		}
		info.Found = true
		info.Gen = gen
		info.Path = path
		info.Records = st.Source.Records
		return st, info, nil
	}
	return nil, info, nil
}

// CheckpointConfig configures a Checkpointer.
type CheckpointConfig struct {
	// Dir is where checkpoint generations live. Created if missing.
	Dir string
	// Interval triggers a checkpoint when this much wall time has passed
	// since the last one (0 = no time trigger).
	Interval time.Duration
	// EveryRecords triggers a checkpoint every N consumed records
	// (0 = no count trigger). At least one trigger must be set for a
	// Trigger to ever fire; Checkpoint always fires.
	EveryRecords uint64
	// Keep is how many generations to retain (0 = 2: the latest plus the
	// fallback the corrupt-recovery path needs).
	Keep int
	// PreSync, when non-nil, runs before the state is exported — the hook
	// cmd/vantage uses to flush every socket worker's SafeWriter so the
	// durable trace prefix covers the cut, keeping replay-from-offset
	// exactly-once.
	PreSync func() error
	// Source, when set, is the input file the fed records come from: each
	// cut stats it (after PreSync) and stamps its path and size into
	// SourcePos, the size RestoreLatest's staleness check compares against.
	Source string
	// Registry exports stream_checkpoint_* metrics when non-nil.
	Registry *obs.Registry
	// Clock overrides the wall-clock source behind the checkpoint-age gauge
	// (tests inject a fake). Nil = time.Now. Cadence triggers keep using the
	// real clock.
	Clock func() time.Time
	// Crash wires deterministic crash-point injection ("checkpoint-write",
	// "checkpoint-rename") for the kill–resume tests and the CI crash
	// smoke. When set, checkpoints are written synchronously so the crash
	// fires on the triggering record's call stack.
	Crash *faults.Crasher
}

// CheckpointStats is a point-in-time tally of checkpointing activity.
type CheckpointStats struct {
	// Written counts completed checkpoints.
	Written uint64
	// Errors counts failed attempts (export, encode or write).
	Errors uint64
	// Skipped counts due checkpoints dropped because the previous write
	// was still in flight — ingest is never blocked on checkpoint I/O.
	Skipped uint64
	// Gen is the last generation written; LastBytes/LastDuration describe
	// it; LastRecords is the source position it cut at.
	Gen          uint64
	LastBytes    int
	LastDuration time.Duration
	LastRecords  uint64
}

// Checkpointer writes generation-numbered checkpoints of one engine on a
// record-count and/or wall-clock cadence. Each feeder keeps a Trigger and
// ticks it per record; the one that trips re-arms it and calls Try (where
// several feed one engine, as cmd/vantage's socket workers do, it stops the
// others first). The state export is a brief synchronous barrier (it copies
// in-memory state), while file encoding and I/O happen on a background
// goroutine so ingest never waits on disk. A checkpoint that comes due
// while the previous write is still in flight is skipped and counted, not
// queued.
type Checkpointer struct {
	cfg CheckpointConfig

	mu      sync.Mutex
	nextGen uint64
	writing bool
	// frame is the encode buffer, kept between generations; the one write
	// in flight (writing) owns it.
	frame   []byte
	lastErr error
	stats   CheckpointStats
	wg      sync.WaitGroup
	// created/lastDone feed AgeSeconds: lastDone is the completion time of
	// the last successful checkpoint (zero before the first).
	created  time.Time
	lastDone time.Time
}

// NewCheckpointer prepares dir (creating it if needed) and numbers the
// next generation after the newest existing file, so a restarted process
// never overwrites the checkpoint it just recovered from.
func NewCheckpointer(cfg CheckpointConfig) (*Checkpointer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("stream: checkpoint dir not set")
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 2
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: creating checkpoint dir: %w", err)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Checkpointer{cfg: cfg, created: cfg.Clock()}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("stream: reading checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		if gen, ok := parseGen(ent.Name()); ok && gen >= c.nextGen {
			c.nextGen = gen + 1
		}
	}
	if reg := cfg.Registry; reg != nil {
		reg.Help(MetricCheckpoints, "Checkpoints written.")
		reg.Help(MetricCheckpointErrors, "Checkpoint attempts that failed.")
		reg.Help(MetricCheckpointSkipped, "Due checkpoints skipped because a write was in flight.")
		reg.Help(MetricCheckpointGen, "Last checkpoint generation written.")
		reg.Help(MetricCheckpointBytes, "Size of the last checkpoint (bytes).")
		reg.Help(MetricCheckpointDuration, "Wall time of the last checkpoint write (ms).")
		reg.Help(MetricCheckpointAge, "Completion time of the last checkpoint (Unix ms).")
		reg.Help(MetricCheckpointAgeSeconds, "Seconds since the last successful checkpoint (since start before the first).")
		reg.GaugeFunc(MetricCheckpointAgeSeconds, c.AgeSeconds)
		// Every other series reads the tally Stats reports.
		reg.CounterFunc(MetricCheckpoints, func() uint64 { return c.Stats().Written })
		reg.CounterFunc(MetricCheckpointErrors, func() uint64 { return c.Stats().Errors })
		reg.CounterFunc(MetricCheckpointSkipped, func() uint64 { return c.Stats().Skipped })
		reg.GaugeFunc(MetricCheckpointGen, func() float64 { return float64(c.Stats().Gen) })
		reg.GaugeFunc(MetricCheckpointBytes, func() float64 { return float64(c.Stats().LastBytes) })
		reg.GaugeFunc(MetricCheckpointDuration, func() float64 { return float64(c.Stats().LastDuration.Milliseconds()) })
		reg.GaugeFunc(MetricCheckpointAge, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.lastDone.IsZero() {
				return 0
			}
			return float64(c.lastDone.UnixMilli())
		})
	}
	return c, nil
}

// Trigger is one feeder's private share of a Checkpointer's cadence: the
// records it has consumed since the last cut and the next wall-clock due
// instant. The per-record check is an increment and two compares against a
// timestamp the feeder already holds — no shared lock, no clock read. Not
// safe for concurrent use: the owner guards it (in cmd/vantage the socket
// worker's mutex, which the cut coordinator also holds to Rearm it). The
// zero value never fires.
type Trigger struct {
	every    uint64
	interval time.Duration
	since    uint64
	next     time.Time
}

// NewTrigger returns the trigger for one of n feeders that share c's
// cadence. Each trips after EveryRecords/n (rounded up) records of its own,
// so however the traffic spreads over the feeders a cut is never more than
// EveryRecords records behind; with one feeder the count is exact. A nil
// Checkpointer yields the zero Trigger.
func (c *Checkpointer) NewTrigger(n int) Trigger {
	if c == nil {
		return Trigger{}
	}
	t := Trigger{interval: c.cfg.Interval}
	if c.cfg.EveryRecords > 0 {
		t.every = (c.cfg.EveryRecords + uint64(n) - 1) / uint64(n)
	}
	t.Rearm(time.Now())
	return t
}

// Tick counts one record consumed at now and reports whether a checkpoint
// is due.
func (t *Trigger) Tick(now time.Time) bool {
	t.since++
	return t.Due(now)
}

// Due reports whether a checkpoint is due at now, without counting a record.
func (t *Trigger) Due(now time.Time) bool {
	return (t.every > 0 && t.since >= t.every) || (t.interval > 0 && !now.Before(t.next))
}

// Rearm starts a new period at now. Call it when a checkpoint is attempted,
// not when it completes, so a failing checkpoint retries on the configured
// cadence instead of on every record.
func (t *Trigger) Rearm(now time.Time) {
	t.since = 0
	t.next = now.Add(t.interval)
}

// Try checkpoints e now unless the previous write is still in flight; call
// it when a Trigger trips, after re-arming it. records is the absolute
// source position (well-formed records consumed, including any skipped
// during resume replay) — it becomes SourcePos.Records, the offset a later
// resume replays from. A skipped attempt is counted once and waits the
// caller's next period instead of busy-polling the in-flight write.
func (c *Checkpointer) Try(e *Engine, records uint64) error {
	c.mu.Lock()
	if c.writing {
		c.stats.Skipped++
		c.mu.Unlock()
		return nil
	}
	c.writing = true
	c.mu.Unlock()
	return c.run(e, records)
}

// Checkpoint writes a checkpoint now, synchronously, regardless of
// triggers — the shutdown and test entry point. It waits out any write in
// flight first so generations stay ordered.
func (c *Checkpointer) Checkpoint(e *Engine, records uint64) error {
	c.wg.Wait()
	c.mu.Lock()
	c.writing = true
	c.mu.Unlock()
	if err := c.run(e, records); err != nil {
		return err
	}
	c.wg.Wait()
	return c.Err()
}

// run exports the state on the caller's goroutine (the consistent cut),
// then hands the write to a background goroutine — unless crash injection
// is active, in which case the write is synchronous so the crash fires
// deterministically on this call stack.
func (c *Checkpointer) run(e *Engine, records uint64) error {
	start := time.Now()
	fail := func(err error) error {
		c.mu.Lock()
		c.writing = false
		c.lastErr = err
		c.stats.Errors++
		c.mu.Unlock()
		return err
	}
	if c.cfg.PreSync != nil {
		if err := c.cfg.PreSync(); err != nil {
			return fail(fmt.Errorf("stream: checkpoint pre-sync: %w", err))
		}
	}
	st, err := e.ExportState()
	if err != nil {
		return fail(err)
	}
	st.Source.Records = records
	if c.cfg.Source != "" {
		st.Source.Path = c.cfg.Source
		if fi, err := os.Stat(c.cfg.Source); err == nil {
			st.Source.Bytes = fi.Size()
		}
	}
	c.mu.Lock()
	gen := c.nextGen
	c.nextGen++
	c.mu.Unlock()
	if c.cfg.Crash != nil {
		c.write(gen, st, records, start)
		return c.Err()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.write(gen, st, records, start)
	}()
	return nil
}

// write encodes and durably writes one generation, then prunes old ones.
func (c *Checkpointer) write(gen uint64, st *EngineState, records uint64, start time.Time) {
	err := c.writeFile(gen, st)
	c.mu.Lock()
	c.writing = false
	if err != nil {
		c.lastErr = err
		c.stats.Errors++
		c.mu.Unlock()
		return
	}
	c.lastErr = nil
	c.lastDone = c.cfg.Clock()
	c.stats.Written++
	c.stats.Gen = gen
	c.stats.LastRecords = records
	c.stats.LastDuration = time.Since(start)
	c.mu.Unlock()
}

func (c *Checkpointer) writeFile(gen uint64, st *EngineState) error {
	c.frame = appendCheckpoint(c.frame, st)
	data := c.frame
	c.mu.Lock()
	c.stats.LastBytes = len(data)
	c.mu.Unlock()
	tmp := filepath.Join(c.cfg.Dir, fmt.Sprintf("%scheckpoint-%08d", checkpointTmpPre, gen))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("stream: creating checkpoint temp: %w", err)
	}
	// Write in two halves with a crash point between them, so crash
	// injection can leave a genuinely torn temp file on disk.
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		f.Close()
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	c.cfg.Crash.Point("checkpoint-write")
	if _, err := f.Write(data[half:]); err != nil {
		f.Close()
		return fmt.Errorf("stream: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("stream: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stream: closing checkpoint: %w", err)
	}
	c.cfg.Crash.Point("checkpoint-rename")
	final := CheckpointPath(c.cfg.Dir, gen)
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("stream: publishing checkpoint: %w", err)
	}
	syncDir(c.cfg.Dir)
	c.prune(gen)
	return nil
}

// prune removes generations older than the Keep newest, plus any leftover
// temp files from crashed writes (only one write is ever in flight, so
// every .tmp- file other than the one just renamed is an orphan).
func (c *Checkpointer) prune(latest uint64) {
	entries, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return
	}
	var gens []uint64
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, checkpointTmpPre) {
			os.Remove(filepath.Join(c.cfg.Dir, name))
			continue
		}
		if gen, ok := parseGen(name); ok && gen <= latest {
			gens = append(gens, gen)
		}
	}
	if len(gens) <= c.cfg.Keep {
		return
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, gen := range gens[c.cfg.Keep:] {
		os.Remove(CheckpointPath(c.cfg.Dir, gen))
	}
}

// syncDir fsyncs a directory so a rename is durable. Best-effort: some
// filesystems refuse directory fsync, and the rename is still atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close waits for any in-flight write. It does NOT take a final
// checkpoint — callers that want one call Checkpoint first.
func (c *Checkpointer) Close() error {
	c.wg.Wait()
	return c.Err()
}

// Err returns the most recent checkpoint failure, nil after a success.
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// AgeSeconds reports seconds since the last successful checkpoint
// completed — the recovery-point objective. Before the first success it
// ages from the Checkpointer's creation, so a deployment whose very first
// checkpoint never lands still trips an age-based alert. Nil-safe (0).
func (c *Checkpointer) AgeSeconds() float64 {
	if c == nil {
		return 0
	}
	now := c.cfg.Clock()
	c.mu.Lock()
	last := c.lastDone
	if last.IsZero() {
		last = c.created
	}
	c.mu.Unlock()
	age := now.Sub(last).Seconds()
	if age < 0 {
		return 0
	}
	return age
}

// Stats returns a point-in-time tally.
func (c *Checkpointer) Stats() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
