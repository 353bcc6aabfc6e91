package matcher

import (
	"fmt"
	"testing"

	"botmeter/internal/symtab"
)

// TestIDMatcherAgreesWithSet interns a pool-like domain list and asserts the
// bitset matcher answers exactly like the exact string set for every
// interned domain plus a band of foreign IDs.
func TestIDMatcherAgreesWithSet(t *testing.T) {
	tab := symtab.New()
	// Intern some unrelated names first so pool IDs don't start at 1.
	for i := 0; i < 100; i++ {
		tab.Intern(fmt.Sprintf("pre%02d.example", i))
	}
	domains := make([]string, 500)
	ids := make([]symtab.ID, 500)
	for i := range domains {
		domains[i] = fmt.Sprintf("pool%03d.dga.example", i)
		ids[i] = tab.Intern(domains[i])
	}
	// Hold out every 7th domain from the matched set (simulating D³
	// detecting only a subset).
	var matchedIDs []symtab.ID
	var matchedDomains []string
	for i := range domains {
		if i%7 == 0 {
			continue
		}
		matchedIDs = append(matchedIDs, ids[i])
		matchedDomains = append(matchedDomains, domains[i])
	}
	set := NewSet("fam", matchedDomains)
	idm := NewIDMatcher("fam", matchedIDs)
	if idm.Name() != "fam" {
		t.Fatalf("Name = %q", idm.Name())
	}
	for i, d := range domains {
		if got, want := idm.MatchID(ids[i]), set.Match(d); got != want {
			t.Fatalf("disagreement on %q (id %d): id=%v set=%v", d, ids[i], got, want)
		}
	}
	// Foreign IDs (pre-interned names and unseen band) never match.
	for id := symtab.ID(1); id <= 100; id++ {
		if idm.MatchID(id) {
			t.Fatalf("foreign low ID %d matched", id)
		}
	}
	for id := ids[len(ids)-1] + 1; id < ids[len(ids)-1]+100; id++ {
		if idm.MatchID(id) {
			t.Fatalf("foreign high ID %d matched", id)
		}
	}
	if idm.MatchID(symtab.None) {
		t.Fatal("None matched")
	}
}

func TestIDMatcherEmpty(t *testing.T) {
	idm := NewIDMatcher("empty", nil)
	for _, id := range []symtab.ID{0, 1, 2, 1 << 20} {
		if idm.MatchID(id) {
			t.Fatalf("empty matcher matched %d", id)
		}
	}
	// None entries are ignored, not stored.
	idm = NewIDMatcher("nones", []symtab.ID{symtab.None, symtab.None})
	if idm.MatchID(symtab.None) {
		t.Fatal("None entries should be ignored")
	}
}

func TestIDMatcherDuplicates(t *testing.T) {
	idm := NewIDMatcher("dup", []symtab.ID{5, 5, 5, 9})
	if !idm.MatchID(5) || !idm.MatchID(9) || idm.MatchID(6) {
		t.Fatal("membership wrong")
	}
}
