package trace

import (
	"bytes"
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
	got := o.Window(sim.Window{Start: 150, End: 400})
	if len(got) != 2 {
		t.Fatalf("window kept %d records, want 2 (end is exclusive)", len(got))
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
	if got := r.Window(sim.Window{Start: 0, End: 20}); len(got) != 1 || got[0].Domain != "a.com" {
		t.Errorf("window = %v", got)
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

func TestObservedCSVRoundTrip(t *testing.T) {
	o := sampleObserved()
	var buf bytes.Buffer
	if err := WriteObservedCSV(&buf, o); err != nil {
		t.Fatal(err)
	}
	back, err := ReadObservedCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(o) {
		t.Fatalf("round trip length %d, want %d", len(back), len(o))
	}
	for i := range o {
		if back[i] != o[i] {
			t.Errorf("record %d: got %+v, want %+v", i, back[i], o[i])
		}
	}
}

func TestRawCSVRoundTrip(t *testing.T) {
	r := Raw{
		{T: 5, Client: "10.1.2.3", Server: "local-00", Domain: "evil.com", NX: true},
		{T: 7, Client: "10.1.2.4", Server: "local-01", Domain: "good.com", NX: false},
	}
	var buf bytes.Buffer
	if err := WriteRawCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRawCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != r[0] || back[1] != r[1] {
		t.Errorf("round trip = %+v", back)
	}
}

func TestObservedJSONLRoundTrip(t *testing.T) {
	o := sampleObserved()
	var buf bytes.Buffer
	if err := WriteObservedJSONL(&buf, o); err != nil {
		t.Fatal(err)
	}
	back, err := ReadObservedJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(o) {
		t.Fatalf("length %d, want %d", len(back), len(o))
	}
	for i := range o {
		if back[i] != o[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestRawJSONLRoundTrip(t *testing.T) {
	r := Raw{{T: 5, Client: "c", Server: "s", Domain: "d.com", NX: true}}
	var buf bytes.Buffer
	if err := WriteRawJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRawJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != r[0] {
		t.Errorf("round trip = %+v", back)
	}
}

func TestReadObservedCSVErrors(t *testing.T) {
	if _, err := ReadObservedCSV(bytes.NewBufferString("t_ms,server,domain\nnot-a-number,s,d\n")); err == nil {
		t.Error("bad timestamp should error")
	}
	if got, err := ReadObservedCSV(bytes.NewBufferString("")); err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestReadRawCSVErrors(t *testing.T) {
	if _, err := ReadRawCSV(bytes.NewBufferString("h\nbad-row\n")); err == nil {
		t.Error("short row should error")
	}
	if _, err := ReadRawCSV(bytes.NewBufferString("t_ms,client,server,domain,nx\n1,c,s,d,maybe\n")); err == nil {
		t.Error("bad bool should error")
	}
}

func TestObservedCSVRoundTripProperty(t *testing.T) {
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
		if err := WriteObservedCSV(&buf, o); err != nil {
			return false
		}
		back, err := ReadObservedCSV(&buf)
		if err != nil || len(back) != len(o) {
			return false
		}
		for i := range o {
			if back[i] != o[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
