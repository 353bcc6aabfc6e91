package faults

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Crasher extends the fault substrate from packet-level chaos to
// process-level crash chaos: it kills the process (or, in tests, fires a
// caller-supplied Die hook) at deterministic points — after the Nth record,
// or at the Nth occurrence of a named code point such as mid-checkpoint.
// Combined with checkpoint/recovery (internal/stream, DESIGN.md §15) this
// is what lets the kill–resume differential and the CI crash smoke place
// crashes exactly where they hurt instead of hoping a random SIGKILL lands
// there.
//
// Like the Injector, a Crasher's behaviour is fully determined by its spec:
// the same traffic hits the same crash point on every run.
type Crasher struct {
	spec CrashSpec

	// Die is invoked exactly once when a crash point fires, on whichever
	// goroutine reached it (a checkpoint's points fire on its writer). The
	// default exits with status 137 — the status a SIGKILLed process
	// reports — so supervisors and the shell smoke treat it like a real
	// kill. In-process tests substitute a hook that records the crash and
	// ends that goroutine (runtime.Goexit).
	Die func(reason string)

	mu      sync.Mutex
	records uint64
	points  map[string]uint64
	fired   bool
}

// CrashSpec says where to crash. The zero value never crashes.
type CrashSpec struct {
	// AfterRecords, when > 0, crashes immediately after the Nth call to
	// Record — "die after N records".
	AfterRecords uint64
	// Point, when non-empty, crashes at the Nth (PointNth, default 1st)
	// call to Point with this name — e.g. "checkpoint-write" to die with a
	// half-written checkpoint on disk.
	Point    string
	PointNth uint64
}

// Enabled reports whether any crash can fire.
func (s CrashSpec) Enabled() bool { return s.AfterRecords > 0 || s.Point != "" }

// String renders the spec in ParseCrashSpec's format.
func (s CrashSpec) String() string {
	var parts []string
	if s.AfterRecords > 0 {
		parts = append(parts, fmt.Sprintf("records=%d", s.AfterRecords))
	}
	if s.Point != "" {
		nth := s.PointNth
		if nth == 0 {
			nth = 1
		}
		parts = append(parts, fmt.Sprintf("point=%s:%d", s.Point, nth))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseCrashSpec parses a compact crash specification of the form
//
//	records=500              # die right after the 500th record
//	point=checkpoint-write:2 # die at the 2nd hit of that crash point
//	records=500,point=checkpoint-write:1
//
// An empty spec or "none" yields a zero spec (never crashes).
func ParseCrashSpec(spec string) (CrashSpec, error) {
	var s CrashSpec
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return s, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return CrashSpec{}, fmt.Errorf("faults: bad crash spec field %q (want key=value)", field)
		}
		switch key {
		case "records":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return CrashSpec{}, fmt.Errorf("faults: records=%q is not a positive count", val)
			}
			s.AfterRecords = n
		case "point":
			name, nthStr, hasNth := strings.Cut(val, ":")
			if name == "" {
				return CrashSpec{}, fmt.Errorf("faults: point=%q has no name", val)
			}
			s.Point = name
			s.PointNth = 1
			if hasNth {
				nth, err := strconv.ParseUint(nthStr, 10, 64)
				if err != nil || nth == 0 {
					return CrashSpec{}, fmt.Errorf("faults: point occurrence %q is not a positive count", nthStr)
				}
				s.PointNth = nth
			}
		default:
			return CrashSpec{}, fmt.Errorf("faults: unknown crash spec key %q", key)
		}
	}
	return s, nil
}

// NewCrasher builds a crasher for spec. A nil result means the spec never
// crashes, and is safe to call Record/Point on.
func NewCrasher(spec CrashSpec) *Crasher {
	if !spec.Enabled() {
		return nil
	}
	if spec.Point != "" && spec.PointNth == 0 {
		spec.PointNth = 1
	}
	return &Crasher{
		spec:   spec,
		Die:    func(reason string) { fmt.Fprintln(os.Stderr, "crash injected:", reason); os.Exit(137) },
		points: make(map[string]uint64),
	}
}

// Spec returns the configured crash spec (zero for a nil crasher).
func (c *Crasher) Spec() CrashSpec {
	if c == nil {
		return CrashSpec{}
	}
	return c.spec
}

// Record counts one processed record and crashes when the count reaches the
// configured AfterRecords. Nil-safe.
func (c *Crasher) Record() {
	if c == nil || c.spec.AfterRecords == 0 {
		return
	}
	c.mu.Lock()
	c.records++
	due := !c.fired && c.records == c.spec.AfterRecords
	if due {
		c.fired = true
	}
	c.mu.Unlock()
	if due {
		c.Die(fmt.Sprintf("after %d records", c.spec.AfterRecords))
	}
}

// Point counts one occurrence of a named crash point and crashes at the
// configured occurrence of the configured point. Nil-safe, so instrumented
// code can call it unconditionally.
func (c *Crasher) Point(name string) {
	if c == nil || c.spec.Point != name {
		return
	}
	c.mu.Lock()
	c.points[name]++
	due := !c.fired && c.points[name] == c.spec.PointNth
	if due {
		c.fired = true
	}
	c.mu.Unlock()
	if due {
		c.Die(fmt.Sprintf("at point %s (occurrence %d)", name, c.spec.PointNth))
	}
}
