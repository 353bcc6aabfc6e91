package symtab

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestInternBasics(t *testing.T) {
	tab := New()
	a := tab.Intern("alpha.com")
	b := tab.Intern("beta.com")
	if a != 1 || b != 2 {
		t.Fatalf("expected dense IDs 1,2, got %d,%d", a, b)
	}
	if got := tab.Intern("alpha.com"); got != a {
		t.Fatalf("re-intern changed ID: %d != %d", got, a)
	}
	if got := tab.Resolve(a); got != "alpha.com" {
		t.Fatalf("Resolve(%d) = %q", a, got)
	}
	if got := tab.Resolve(None); got != "" {
		t.Fatalf("Resolve(None) = %q, want empty", got)
	}
	if got := tab.Resolve(99); got != "" {
		t.Fatalf("Resolve(out-of-range) = %q, want empty", got)
	}
	if id, ok := tab.Lookup("beta.com"); !ok || id != b {
		t.Fatalf("Lookup(beta.com) = %d,%v", id, ok)
	}
	if id, ok := tab.Lookup("gamma.com"); ok || id != None {
		t.Fatalf("Lookup(miss) = %d,%v, want None,false", id, ok)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

func TestInternEmptyString(t *testing.T) {
	tab := New()
	id := tab.Intern("")
	if id == None {
		t.Fatal("empty string must receive a real ID, got None")
	}
	if got := tab.Intern(""); got != id {
		t.Fatalf("re-intern of empty string: %d != %d", got, id)
	}
	if got := tab.Resolve(id); got != "" {
		t.Fatalf("Resolve(empty id) = %q", got)
	}
}

// TestInternProperty is the satellite property test: intern→resolve
// round-trips, and IDs are dense and stable under interleaved interning of
// new and already-seen strings.
func TestInternProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	tab := New()
	want := make(map[string]ID)
	var order []string // order[i] interned with ID i+1

	for step := 0; step < 20000; step++ {
		var s string
		if len(order) > 0 && rng.Intn(3) == 0 {
			// Re-intern an already-seen string (interleaved).
			s = order[rng.Intn(len(order))]
		} else {
			s = fmt.Sprintf("d%06x.dga%d.com", rng.Intn(1<<20), rng.Intn(7))
		}
		id := tab.Intern(s)
		if prev, seen := want[s]; seen {
			if id != prev {
				t.Fatalf("step %d: ID for %q changed %d -> %d", step, s, prev, id)
			}
		} else {
			// Dense: a new string must get exactly len+1.
			if int(id) != len(order)+1 {
				t.Fatalf("step %d: new string got ID %d, want %d (dense)", step, id, len(order)+1)
			}
			want[s] = id
			order = append(order, s)
		}
	}
	if tab.Len() != len(order) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(order))
	}
	// Round-trip every assignment, in both directions.
	for i, s := range order {
		id := ID(i + 1)
		if got := tab.Resolve(id); got != s {
			t.Fatalf("Resolve(%d) = %q, want %q", id, got, s)
		}
		if got, ok := tab.Lookup(s); !ok || got != id {
			t.Fatalf("Lookup(%q) = %d,%v, want %d,true", s, got, ok, id)
		}
	}
}

func TestResetReuse(t *testing.T) {
	tab := New()
	for i := 0; i < 5000; i++ {
		tab.Intern(fmt.Sprintf("x%d.example", i))
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	if id, ok := tab.Lookup("x0.example"); ok || id != None {
		t.Fatalf("Lookup after Reset = %d,%v", id, ok)
	}
	// IDs restart dense from 1.
	if id := tab.Intern("fresh.example"); id != 1 {
		t.Fatalf("first post-Reset ID = %d, want 1", id)
	}
}

// TestGrowAfterReset: doubling re-places IDs from the stored hashes, so Reset
// must leave that array describing exactly the strings the table holds now —
// a leftover from the previous contents would misplace every ID at the next
// doubling.
func TestGrowAfterReset(t *testing.T) {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d.example", prefix, i)
		}
		return out
	}
	check := func(tab *Table, want []string) {
		t.Helper()
		for i, s := range want {
			if id, ok := tab.Lookup(s); !ok || int(id) != i+1 {
				t.Fatalf("Lookup(%q) = %d,%v, want %d,true", s, id, ok, i+1)
			}
		}
	}
	tab := New()
	for _, s := range names("x", 5000) { // 1024 → 8192 slots
		tab.Intern(s)
	}
	tab.Reset()
	second := names("y", 7000) // crosses 6144 = ¾·8192 after the Reset
	for _, s := range second {
		tab.Intern(s)
	}
	check(tab, second)
}

func TestPoolRecycle(t *testing.T) {
	tab := Get()
	tab.Intern("a.example")
	tab.Intern("b.example")
	tab.Release()
	got := Get()
	if got.Len() != 0 {
		t.Fatalf("pooled table not reset: Len = %d", got.Len())
	}
	if id, ok := got.Lookup("a.example"); ok || id != None {
		t.Fatalf("stale entry survived recycle: %d,%v", id, ok)
	}
	got.Release()
}

func TestConcurrentIntern(t *testing.T) {
	tab := New()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]ID, perWorker)
			for i := 0; i < perWorker; i++ {
				// Overlapping key space across workers: each string
				// interned by several goroutines must agree on its ID.
				out[i] = tab.Intern(fmt.Sprintf("shared%d.example", i))
			}
			ids[w] = out
		}(w)
	}
	wg.Wait()
	for i := 0; i < perWorker; i++ {
		first := ids[0][i]
		for w := 1; w < workers; w++ {
			if ids[w][i] != first {
				t.Fatalf("worker %d disagrees on ID for shared%d: %d != %d", w, i, ids[w][i], first)
			}
		}
		if got := tab.Resolve(first); got != fmt.Sprintf("shared%d.example", i) {
			t.Fatalf("Resolve(%d) = %q", first, got)
		}
	}
	if tab.Len() != perWorker {
		t.Fatalf("Len = %d, want %d", tab.Len(), perWorker)
	}
}

// FuzzIntern exercises duplicate, empty and non-canonical-case inputs: the
// table must treat byte-distinct strings as distinct, be idempotent for
// duplicates, and round-trip every assignment.
func FuzzIntern(f *testing.F) {
	f.Add("example.com", "EXAMPLE.com", "example.com")
	f.Add("", "", "a")
	f.Add("x.y", "x.y.", "x..y")
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "b", "")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		tab := Get()
		defer tab.Release()
		in := []string{a, b, c, a, b, c}
		got := make([]ID, len(in))
		seen := make(map[string]ID)
		next := ID(1)
		for i, s := range in {
			got[i] = tab.Intern(s)
			if prev, ok := seen[s]; ok {
				if got[i] != prev {
					t.Fatalf("duplicate %q got different IDs: %d vs %d", s, got[i], prev)
				}
			} else {
				if got[i] != next {
					t.Fatalf("new string %q got ID %d, want dense %d", s, got[i], next)
				}
				seen[s] = got[i]
				next++
			}
		}
		for s, id := range seen {
			if r := tab.Resolve(id); r != s {
				t.Fatalf("Resolve(%d) = %q, want %q", id, r, s)
			}
			if l, ok := tab.Lookup(s); !ok || l != id {
				t.Fatalf("Lookup(%q) = %d,%v, want %d,true", s, l, ok, id)
			}
		}
		if tab.Len() != len(seen) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(seen))
		}
	})
}
