package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"botmeter/internal/sim"
)

func sampleObserved() Observed {
	return Observed{
		{T: 300, Server: "local-01", Domain: "b.com"},
		{T: 100, Server: "local-00", Domain: "a.com"},
		{T: 200, Server: "local-00", Domain: "a.com"},
		{T: 400, Server: "local-01", Domain: "c.com"},
	}
}

func TestObservedSortStable(t *testing.T) {
	o := sampleObserved()
	o.Sort()
	for i := 1; i < len(o); i++ {
		if o[i].T < o[i-1].T {
			t.Fatalf("not sorted at %d: %v", i, o)
		}
	}
}

func TestObservedWindow(t *testing.T) {
	o := sampleObserved()
	if o.IsSorted() {
		t.Fatal("sample is sorted; IsSorted must say otherwise")
	}
	o.Sort()
	if !o.IsSorted() {
		t.Fatal("IsSorted is false after Sort")
	}
	got := o.WindowSorted(sim.Window{Start: 150, End: 400})
	if len(got) != 2 || got[0].T != 200 || got[1].T != 300 {
		t.Fatalf("window = %v, want the records at 200 and 300 (end is exclusive)", got)
	}
	if got := o.WindowSorted(sim.Window{Start: 500, End: 600}); len(got) != 0 {
		t.Errorf("window past the data = %v", got)
	}
}

func TestObservedByServerAndServers(t *testing.T) {
	servers := sampleObserved().Servers()
	if len(servers) != 2 || servers[0] != "local-00" || servers[1] != "local-01" {
		t.Errorf("servers = %v", servers)
	}
}

func TestObservedDomains(t *testing.T) {
	d := sampleObserved().Domains()
	want := []string{"a.com", "b.com", "c.com"}
	if len(d) != len(want) {
		t.Fatalf("domains = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("domains[%d] = %q, want %q", i, d[i], want[i])
		}
	}
}

func TestObservedFilterTruncate(t *testing.T) {
	o := Observed{{T: 1234, Server: "s", Domain: "keep.com"}, {T: 2345, Server: "s", Domain: "drop.com"}}
	tr := o.Truncate(1000)
	if tr[0].T != 1000 || tr[1].T != 2000 {
		t.Errorf("truncate = %v", tr)
	}
	// Original untouched.
	if o[0].T != 1234 {
		t.Error("Truncate must not mutate the input")
	}
}

func TestRawWindowFilterSort(t *testing.T) {
	r := Raw{
		{T: 30, Client: "c", Domain: "b.com", NX: true},
		{T: 10, Client: "c", Domain: "a.com"},
	}
	r.Sort()
	if r[0].T != 10 {
		t.Error("raw sort failed")
	}
}

// TestBuilderKeepsAppendOrder: Build returns every record in append order
// whatever chunk a record landed in — the first small chunk, the doubling
// ones, or the capped ones after them.
func TestBuilderKeepsAppendOrder(t *testing.T) {
	for _, n := range []int{0, 1, builderFirstChunk, builderFirstChunk + 1, 3*builderMaxChunk + 17} {
		var b Builder
		for i := 0; i < n; i++ {
			b.Append(ObservedRecord{T: sim.Time(i)})
		}
		got := b.Build()
		if len(got) != n || b.Len() != n {
			t.Fatalf("%d appends: Build has %d records, Len %d", n, len(got), b.Len())
		}
		for i, rec := range got {
			if rec.T != sim.Time(i) {
				t.Fatalf("%d appends: record %d has T %v", n, i, rec.T)
			}
		}
		if c := cap(b.cur); c > builderMaxChunk {
			t.Errorf("%d appends: chunk capacity %d beyond the %d cap", n, c, builderMaxChunk)
		}
	}
}

func TestObservedJSONLRoundTrip(t *testing.T) {
	o := sampleObserved()
	var buf bytes.Buffer
	if err := WriteObservedJSONL(&buf, o); err != nil {
		t.Fatal(err)
	}
	back, res, err := ReadObserved(&buf, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, o) || res.Records != len(o) {
		t.Errorf("round trip = %+v (%+v), want %+v", back, res, o)
	}
}

// TestRawJSONLRoundTrip: nothing reads the raw dataset back but tools
// outside the tree, so the test decodes WriteRawJSONL's lines by hand.
func TestRawJSONLRoundTrip(t *testing.T) {
	r := Raw{
		{T: 5, Client: "10.1.2.3", Server: "local-00", Domain: "evil.com", NX: true},
		{T: 7, Client: "10.1.2.4", Server: "local-01", Domain: "good.com"},
	}
	var buf bytes.Buffer
	if err := WriteRawJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := `{"t":5,"client":"10.1.2.3","server":"local-00","domain":"evil.com","nx":true}` + "\n" +
		`{"t":7,"client":"10.1.2.4","server":"local-01","domain":"good.com","nx":false}` + "\n"
	if buf.String() != want {
		t.Fatalf("raw JSONL = %q, want %q", buf.String(), want)
	}
	var back Raw
	for _, line := range strings.SplitAfter(strings.TrimSuffix(want, "\n"), "\n") {
		var rec RawRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		back = append(back, rec)
	}
	if !slices.Equal(back, r) {
		t.Errorf("round trip = %+v", back)
	}
}

func TestObservedJSONLRoundTripProperty(t *testing.T) {
	f := func(ts []uint32, which []bool) bool {
		var o Observed
		for i, tv := range ts {
			srv := "local-00"
			if i < len(which) && which[i] {
				srv = "local-01"
			}
			o = append(o, ObservedRecord{T: sim.Time(tv), Server: srv, Domain: "dom.com"})
		}
		var buf bytes.Buffer
		if err := WriteObservedJSONL(&buf, o); err != nil {
			return false
		}
		back, _, err := ReadObserved(&buf, ReadOptions{})
		return err == nil && slices.Equal(back, o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
