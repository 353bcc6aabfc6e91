package trace

import (
	"strings"
	"testing"

	"botmeter/internal/sim"
)

const sampleBINDLog = `01-Jul-2026 00:00:01.500 client 10.0.0.1#53124 (evil.example): query: evil.example IN A +E(0)K (192.0.2.53)
01-Jul-2026 00:00:02.250 client 10.0.0.2#40001: query: another.test IN AAAA + (192.0.2.53)
01-Jul-2026 12:30:00.000 client 10.0.0.1#53125 (Mixed.CASE.Org.): query: Mixed.CASE.Org. IN A + (192.0.2.53)

this line is garbage
02-Jul-2026 00:00:00.000 client 10.0.0.3#1: query: nextday.example IN A + (192.0.2.53)
`

func TestReadBINDLog(t *testing.T) {
	obs, res, err := ReadBINDLog(strings.NewReader(sampleBINDLog), ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 4 || res.Records != 4 || res.Skipped != 1 {
		t.Fatalf("records = %d (%+v), want 4 with the garbage line skipped", len(obs), res)
	}
	// Reference aligns to the first record's midnight: 00:00:01.500 → 1500 ms.
	if obs[0].T != 1500 {
		t.Errorf("T[0] = %d, want 1500", obs[0].T)
	}
	if obs[0].Server != "10.0.0.1" || obs[0].Domain != "evil.example" {
		t.Errorf("rec[0] = %+v", obs[0])
	}
	// Second form (no parenthesised qname).
	if obs[1].Server != "10.0.0.2" || obs[1].Domain != "another.test" {
		t.Errorf("rec[1] = %+v", obs[1])
	}
	// Case and trailing-dot normalisation.
	if obs[2].Domain != "mixed.case.org" {
		t.Errorf("rec[2].Domain = %q", obs[2].Domain)
	}
	if obs[2].T != sim.Time(12*sim.Hour+30*sim.Minute) {
		t.Errorf("rec[2].T = %v", obs[2].T)
	}
	// Next calendar day lands in epoch 1.
	if obs[3].T != sim.Day {
		t.Errorf("rec[3].T = %v, want one day", obs[3].T)
	}
}

// TestReadBINDLogStrict: a query log obeys ReadOptions like JSON lines do.
// Strict, the default, names the first malformed line; lenient skips and
// counts it.
func TestReadBINDLogStrict(t *testing.T) {
	_, _, err := ReadBINDLog(strings.NewReader(sampleBINDLog), ReadOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 5:") {
		t.Errorf("strict read = %v, want an error at line 5", err)
	}
	obs, res, err := ReadBINDLog(strings.NewReader("garbage line\n"), ReadOptions{Lenient: true})
	if err != nil || len(obs) != 0 || res.Skipped != 1 {
		t.Errorf("lenient = %v, %+v, %v", obs, res, err)
	}
}

func TestParseBINDLineErrors(t *testing.T) {
	cases := []string{
		"01-Jul-2026 00:00:01.500 client",                                   // too few fields
		"bad-date 00:00:01.500 client 10.0.0.1#1: query: a.com IN A +",      // bad timestamp
		"01-Jul-2026 00:00:01.500 resolver 10.0.0.1#1: query: a.com IN A +", // no client token
		"01-Jul-2026 00:00:01.500 client 10.0.0.1#1: update: a.com IN A +",  // not a query
		"01-Jul-2026 00:00:01.500 client #1: query: a.com IN A +",           // no client address
	}
	for _, line := range cases {
		if _, _, err := parseBINDLine(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}
