package estimators

import (
	"reflect"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/matcher"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// letterNames is the matcher of a 26-name pool: position p is the name
// 'a'+p ".com", what the checkpoint codec below turns positions into.
func letterNames() *matcher.Attribution {
	domains := make([]string, 26)
	for i := range domains {
		domains[i] = string(rune('a'+i)) + ".com"
	}
	return matcher.NewAttribution(dga.NewPool(domains, nil), nil, nil)
}

// streamOf builds a fresh TimingStream for cfg.
func streamOf(cfg Config) *TimingStream {
	return NewTiming().OpenEpoch(0, cfg).(*TimingStream)
}

// TestTimingStreamMatchesBatch: feeding timestamp-ordered records through
// the incremental form must reproduce the batch estimate exactly.
func TestTimingStreamMatchesBatch(t *testing.T) {
	spec := auSpec()
	spec.ThetaQ = 4
	cfg := defaultCfg(spec)
	obs := trace.Observed{
		{T: 0, Pos: 0},
		{T: 250, Pos: 0},
		{T: 500, Pos: 1},
		{T: 750, Pos: 1},
		{T: 1000, Pos: 2},
		// A third bot well past the first two's absorption windows.
		{T: 10_000, Pos: 0},
		{T: 10_500, Pos: 1},
	}
	want, err := EstimateEpoch(NewTiming(), obs, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := streamOf(cfg)
	for _, rec := range obs {
		s.Observe(rec)
	}
	if got := s.Estimate(); got != want {
		t.Errorf("stream estimate = %v, batch = %v", got, want)
	}
}

// TestTimingStreamAdvanceExpires: candidates past first+θq·δi are folded
// into the expired count and their domain sets freed, so ActiveCandidates
// tracks only the simultaneously-live window.
func TestTimingStreamAdvanceExpires(t *testing.T) {
	spec := auSpec()
	spec.ThetaQ = 4 // max duration 2 s
	s := streamOf(defaultCfg(spec))
	s.Observe(trace.ObservedRecord{T: 0, Pos: 0})
	s.Observe(trace.ObservedRecord{T: 500, Pos: 1})
	if got := s.ActiveCandidates(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
	s.Advance(10 * sim.Second)
	if got := s.ActiveCandidates(); got != 0 {
		t.Errorf("active after expiry = %d, want 0", got)
	}
	if got := s.Estimate(); got != 1 {
		t.Errorf("estimate after expiry = %v, want 1 (expired candidates still count)", got)
	}
}

// TestTimingStreamExportRestore: an exported state restored into a fresh
// stream must continue exactly like the original — same estimates, same
// memory accounting — and the export must share nothing with the live
// stream (mutating the original must not change the snapshot).
func TestTimingStreamExportRestore(t *testing.T) {
	spec := auSpec()
	spec.ThetaQ = 4
	cfg := defaultCfg(spec)
	head := trace.Observed{
		{T: 0, Pos: 0},
		{T: 250, Pos: 0},
		{T: 500, Pos: 1},
		{T: 10_000, Pos: 2}, // expires the first two candidates
	}
	tail := trace.Observed{
		{T: 10_500, Pos: 3},
		{T: 10_750, Pos: 3},
		{T: 11_000, Pos: 4},
	}
	orig := streamOf(cfg)
	for _, rec := range head {
		orig.Observe(rec)
	}
	names := letterNames()
	es := orig.ExportState(names)
	st := es.Timing
	if st.Expired != 2 || len(st.Active) != 1 {
		t.Fatalf("exported state = %+v, want 2 expired / 1 active", st)
	}
	// Aliasing check: the export is a deep copy.
	orig.Observe(trace.ObservedRecord{T: 10_100, Pos: 23})
	if reflect.DeepEqual(es, orig.ExportState(names)) {
		t.Fatal("export should have diverged from the mutated stream")
	}
	if got := st.Active[0].Domains; len(got) != 1 || got[0] != "c.com" {
		t.Fatalf("snapshot mutated by later Observe: %v", got)
	}

	// Fresh run over head for a clean reference, then a restored twin.
	ref := streamOf(cfg)
	for _, rec := range head {
		ref.Observe(rec)
	}
	twin := streamOf(cfg)
	if err := twin.RestoreState(es, names); err != nil {
		t.Fatal(err)
	}
	if twin.Estimate() != ref.Estimate() || twin.ActiveCandidates() != ref.ActiveCandidates() {
		t.Fatalf("restored stream diverges immediately: est %v vs %v, active %d vs %d",
			twin.Estimate(), ref.Estimate(), twin.ActiveCandidates(), ref.ActiveCandidates())
	}
	for _, rec := range tail {
		ref.Observe(rec)
		twin.Observe(rec)
	}
	if twin.Estimate() != ref.Estimate() {
		t.Errorf("restored stream final estimate = %v, reference = %v", twin.Estimate(), ref.Estimate())
	}
	if !reflect.DeepEqual(twin.ExportState(names), ref.ExportState(names)) {
		t.Errorf("restored stream state diverged:\n twin %+v\n ref  %+v", twin.ExportState(names), ref.ExportState(names))
	}

	// A candidate naming a domain the epoch's matcher does not hold cannot
	// be turned back into a position: an error, not a guess.
	st.Active[0].Domains = append(st.Active[0].Domains, "not-in-the-pool.io")
	if err := streamOf(cfg).RestoreState(es, names); err == nil {
		t.Error("RestoreState accepted a candidate domain outside the pool")
	}
}

// TestTimingStreamExportEmpty: a virgin stream exports the zero state and
// restoring it into a used stream resets it.
func TestTimingStreamExportEmpty(t *testing.T) {
	cfg := defaultCfg(auSpec())
	empty := streamOf(cfg).ExportState(letterNames())
	if empty.Timing.Expired != 0 || empty.Timing.Active != nil {
		t.Fatalf("zero state = %+v", empty)
	}
	used := streamOf(cfg)
	used.Observe(trace.ObservedRecord{T: 0, Pos: 0})
	if err := used.RestoreState(empty, letterNames()); err != nil {
		t.Fatal(err)
	}
	if used.Estimate() != 0 || used.ActiveCandidates() != 0 {
		t.Errorf("restore of the zero state did not reset: est %v, active %d",
			used.Estimate(), used.ActiveCandidates())
	}
}
