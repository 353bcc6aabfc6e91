package matcher

import (
	"strings"
	"testing"

	"botmeter/internal/dga"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// TestResolve is the boundary's table: every way a lookup can reach the
// matcher — by interned ID off a simulated border, by name off a trace or
// the wire, spelled canonically or not — against a report with misses and
// collisions. Both inputs of one lookup must resolve to the same position;
// past this function nothing can tell them apart.
func TestResolve(t *testing.T) {
	tab := symtab.New()
	for _, d := range []string{"pre-a.example", "pre-b.example"} {
		tab.Intern(d) // pool IDs do not start at 1
	}
	pool := dga.NewPool([]string{"p0.com", "p1.com", "p2.com", "p3.com"}, []int{1})
	pool.Intern(tab)
	collisions := []string{"benign-collision-0-0.com", "benign-collision-0-1.com"}
	// Position 2 is the detector's miss.
	a := NewAttribution(pool, []int{0, 1, 3}, collisions)

	cases := []struct {
		name    string
		domain  string
		wantPos int32
		wantOK  bool
	}{
		{"pool NXD", "p0.com", 0, true},
		{"pool C2", "p1.com", 1, true},
		{"missed by the detector", "p2.com", 2, false},
		{"last pool position", "p3.com", 3, true},
		{"first collision", "benign-collision-0-0.com", 4, true},
		{"second collision", "benign-collision-0-1.com", 5, true},
		{"benign", "www.example.com", 0, false},
		{"empty", "", 0, false},
	}
	spell := map[string]func(string) string{
		"canonical":    func(d string) string { return d },
		"upper":        strings.ToUpper,
		"trailing dot": func(d string) string { return d + "." },
		"upper + dot":  func(d string) string { return strings.ToUpper(d) + "." },
	}
	for _, tc := range cases {
		check := func(input string, rec trace.ObservedRecord) {
			t.Helper()
			pos, ok := a.Resolve(rec)
			if ok != tc.wantOK || (ok && pos != tc.wantPos) {
				t.Errorf("%s, %s: Resolve = (%d, %v), want (%d, %v)", tc.name, input, pos, ok, tc.wantPos, tc.wantOK)
			}
			if ok && a.Name(pos) != tc.domain {
				t.Errorf("%s, %s: Name(%d) = %q, want %q", tc.name, input, pos, a.Name(pos), tc.domain)
			}
		}
		for how, f := range spell {
			if tc.domain == "" && how != "canonical" {
				continue
			}
			check("name "+how, trace.ObservedRecord{Domain: f(tc.domain)})
		}
		// A simulated border interns every name it emits, benign ones too.
		check("id", trace.ObservedRecord{Domain: tc.domain, ID: tab.Intern(tc.domain)})
	}

	// Perfect pool knowledge: nil detected, no collisions.
	whole := NewAttribution(pool, nil, nil)
	if pos, ok := whole.Resolve(trace.ObservedRecord{Domain: "P2.COM."}); !ok || pos != 2 {
		t.Errorf("whole pool: Resolve(P2.COM.) = (%d, %v), want (2, true)", pos, ok)
	}
	if _, ok := whole.Resolve(trace.ObservedRecord{Domain: collisions[0], ID: tab.Intern(collisions[0])}); ok {
		t.Error("whole pool: a collision name matched without a report naming it")
	}

	// A pool that was never interned has no IDs to read: a record that
	// carries one (from some other table) resolves by its name.
	plain := NewAttribution(dga.NewPool([]string{"p0.com", "p1.com"}, nil), nil, nil)
	if pos, ok := plain.Resolve(trace.ObservedRecord{Domain: "p1.com", ID: 77}); !ok || pos != 1 {
		t.Errorf("unsymbolized pool: Resolve = (%d, %v), want (1, true)", pos, ok)
	}
}
