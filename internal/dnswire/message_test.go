package dnswire

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0xBEEF, "evil-dga-domain.com")
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.ID != 0xBEEF || back.Header.QR || !back.Header.RD {
		t.Errorf("header = %+v", back.Header)
	}
	if len(back.Questions) != 1 {
		t.Fatalf("questions = %d", len(back.Questions))
	}
	got := back.Questions[0]
	if got.Name != "evil-dga-domain.com" || got.Type != TypeA || got.Class != ClassIN {
		t.Errorf("question = %+v", got)
	}
}

func TestResponseRoundTripPositive(t *testing.T) {
	q := NewQuery(7, "c2.example.net")
	resp := NewResponse(q, net.ParseIP("192.0.2.33"), 3600)
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Header.QR || back.Header.Rcode != RcodeNoError {
		t.Errorf("header = %+v", back.Header)
	}
	if len(back.Answers) != 1 {
		t.Fatalf("answers = %d", len(back.Answers))
	}
	a := back.Answers[0]
	if a.Type != TypeA || a.TTL != 3600 || !bytes.Equal(a.Data, net.ParseIP("192.0.2.33").To4()) {
		t.Errorf("answer = %+v", a)
	}
}

func TestResponseNXDomain(t *testing.T) {
	q := NewQuery(9, "nxd.example.org")
	resp := NewResponse(q, nil, 0)
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.Rcode != RcodeNXDomain || len(back.Answers) != 0 {
		t.Errorf("NXDOMAIN response = %+v", back)
	}
	if len(back.Questions) != 1 || back.Questions[0].Name != "nxd.example.org" {
		t.Errorf("question echo = %+v", back.Questions)
	}
}

func TestResponseAAAA(t *testing.T) {
	q := NewQuery(10, "v6.example.com")
	resp := NewResponse(q, net.ParseIP("2001:db8::1"), 60)
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Answers[0].Type != TypeAAAA || len(back.Answers[0].Data) != 16 {
		t.Errorf("AAAA answer = %+v", back.Answers[0])
	}
}

func TestDecodeCompressedName(t *testing.T) {
	// Hand-built message: one question "a.example.com", one answer whose
	// name is a compression pointer back to the question name.
	var b []byte
	b = binary.BigEndian.AppendUint16(b, 1)     // ID
	b = binary.BigEndian.AppendUint16(b, 1<<15) // QR
	b = binary.BigEndian.AppendUint16(b, 1)     // QD
	b = binary.BigEndian.AppendUint16(b, 1)     // AN
	b = binary.BigEndian.AppendUint16(b, 0)     // NS
	b = binary.BigEndian.AppendUint16(b, 0)     // AR
	nameOff := len(b)
	b = append(b, 1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0)
	b = binary.BigEndian.AppendUint16(b, TypeA)
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	// Answer with pointer name.
	b = append(b, 0xC0|byte(nameOff>>8), byte(nameOff))
	b = binary.BigEndian.AppendUint16(b, TypeA)
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	b = binary.BigEndian.AppendUint32(b, 300)
	b = binary.BigEndian.AppendUint16(b, 4)
	b = append(b, 192, 0, 2, 1)

	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Questions[0].Name != "a.example.com" {
		t.Errorf("question = %q", m.Questions[0].Name)
	}
	if m.Answers[0].Name != "a.example.com" {
		t.Errorf("compressed answer name = %q", m.Answers[0].Name)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty": {},
		"short": {0, 1, 2},
		"bad label": func() []byte {
			b := make([]byte, 12)
			binary.BigEndian.PutUint16(b[4:6], 1) // one question
			return append(b, 0x80, 'x')           // reserved label type
		}(),
		"pointer loop": func() []byte {
			b := make([]byte, 12)
			binary.BigEndian.PutUint16(b[4:6], 1) // one question
			return append(b, 0xC0, 12)            // points at itself
		}(),
		"truncated question": func() []byte {
			b := make([]byte, 12)
			binary.BigEndian.PutUint16(b[4:6], 1)
			return append(b, 1, 'a', 0) // name ok, but no type/class
		}(),
		// Found by FuzzDecodeMessage: a raw '.' inside a label has no
		// unambiguous presentation form ("a." re-encoded as "a").
		"dot inside label": func() []byte {
			b := make([]byte, 12)
			binary.BigEndian.PutUint16(b[4:6], 1)
			return append(b, 2, 'a', '.', 0, 0, 1, 0, 1)
		}(),
	}
	for name, wire := range cases {
		if _, err := Decode(wire); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestEncodeRejectsBadNames(t *testing.T) {
	for _, bad := range []string{
		"a..b.com",
		string(make([]byte, 300)) + ".com",
		"spaces are fine actually but this label is way way way way way way way too long to fit in sixty three bytes which is the limit.com",
	} {
		q := NewQuery(1, bad)
		if _, err := q.Encode(); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(labelsRaw []uint8) bool {
		labels := make([]string, 0, len(labelsRaw)%4+1)
		for i := 0; i <= len(labelsRaw)%4; i++ {
			n := 1
			if i < len(labelsRaw) {
				n = int(labelsRaw[i])%20 + 1
			}
			label := make([]byte, n)
			for j := range label {
				label[j] = byte('a' + (i+j)%26)
			}
			labels = append(labels, string(label))
		}
		name := ""
		for i, l := range labels {
			if i > 0 {
				name += "."
			}
			name += l
		}
		q := NewQuery(1, name)
		wire, err := q.Encode()
		if err != nil {
			return true // name exceeded limits; fine
		}
		back, err := Decode(wire)
		if err != nil {
			return false
		}
		return back.Questions[0].Name == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDoesNotPanicProperty(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestResponder: Respond writes NewResponse's bytes for an A answer, an AAAA
// answer and NXDOMAIN, echoing every question; SERVFAIL is neither
// authoritative nor a recursion offer and carries no answer; and a warm
// Responder allocates nothing.
func TestResponder(t *testing.T) {
	two := NewQuery(9, "two.example")
	two.Questions = append(two.Questions, Question{Name: "second.example", Type: TypeAAAA, Class: ClassIN})
	cases := []struct {
		name  string
		q     *Message
		ip    net.IP
		rcode uint8
	}{
		{"A", NewQuery(1, "a.example"), net.ParseIP("192.0.2.7"), RcodeNoError},
		{"AAAA", NewQuery(2, "aaaa.example"), net.ParseIP("2001:db8::7"), RcodeNoError},
		{"NXDOMAIN", NewQuery(3, "nx.example"), nil, RcodeNXDomain},
		{"two questions", two, net.ParseIP("192.0.2.9"), RcodeNoError},
	}
	var r Responder
	for _, c := range cases {
		want, err := NewResponse(c.q, c.ip, 300).Encode()
		if err != nil {
			t.Fatal(err)
		}
		typ, data := TypeA, []byte(c.ip.To4())
		if c.ip != nil && data == nil {
			typ, data = TypeAAAA, c.ip.To16()
		}
		got := r.Respond(c.q.Header.ID, c.q.Header.RD, c.q.Questions, c.rcode, typ, data, 300)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Respond = %x, NewResponse encodes %x", c.name, got, want)
		}
	}

	q := NewQuery(4, "fail.example")
	m, err := Decode(r.Respond(4, true, q.Questions, RcodeServFail, 0, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if h := m.Header; h.ID != 4 || !h.QR || !h.RD || h.AA || h.RA || h.Rcode != RcodeServFail || len(m.Answers) != 0 || len(m.Questions) != 1 {
		t.Errorf("SERVFAIL = %+v", m)
	}

	data := net.ParseIP("192.0.2.7").To4()
	if allocs := testing.AllocsPerRun(100, func() {
		r.Respond(5, true, q.Questions, RcodeNoError, TypeA, data, 60)
	}); allocs != 0 {
		t.Errorf("a warm Respond allocates %.1f times, want 0", allocs)
	}
}
