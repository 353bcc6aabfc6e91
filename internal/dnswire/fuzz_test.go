package dnswire

import (
	"bytes"
	"net"
	"testing"
)

// FuzzDecode hardens the wire parser against adversarial datagrams — a
// vantage point ingests packets from the open network, so Decode must
// never panic and every successfully decoded query must re-encode.
func FuzzDecode(f *testing.F) {
	seed1, _ := NewQuery(1, "seed.example.com").Encode()
	f.Add(seed1)
	seed2, _ := NewResponse(NewQuery(2, "x.org"), net.ParseIP("192.0.2.1"), 60).Encode()
	f.Add(seed2)
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0x0C})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// A decoded message must re-encode without panicking; names that
		// survive decoding are within wire limits so encoding can only
		// fail on label syntax quirks (empty labels via crafted input).
		_, _ = m.Encode()
	})
}

// FuzzNameRoundTrip checks encode→decode identity over arbitrary label
// bytes that pass encoding validation.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add("example.com")
	f.Add("a.b.c.d.e")
	f.Add("xn--bcher-kva.example")
	f.Fuzz(func(t *testing.T, name string) {
		q := NewQuery(7, name)
		wire, err := q.Encode()
		if err != nil {
			return // invalid name; rejection is the contract
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of self-encoded %q failed: %v", name, err)
		}
		want := name
		for len(want) > 0 && want[len(want)-1] == '.' {
			want = want[:len(want)-1]
		}
		if back.Questions[0].Name != want {
			t.Fatalf("round trip %q → %q", name, back.Questions[0].Name)
		}
	})
}

// FuzzDecodeIntoMatchesDecode is the differential fuzzer for the zero-copy
// parser: DecodeInto must agree with the allocating oracle (decodeAlloc, in
// oracle_test.go) on every input — same accept/reject decision and, on
// accept, the same header, questions and answers field for field. It also
// re-decodes into the SAME arena a second time to prove reuse does not leak
// state between packets.
func FuzzDecodeIntoMatchesDecode(f *testing.F) {
	q, _ := NewQuery(0x1234, "seed.example.com").Encode()
	f.Add(q)
	resp, _ := NewResponse(NewQuery(2, "pool-domain.biz"), net.ParseIP("192.0.2.1"), 300).Encode()
	f.Add(resp)
	resp6, _ := NewResponse(NewQuery(3, "v6.example"), net.ParseIP("2001:db8::1"), 60).Encode()
	f.Add(resp6)
	nx, _ := NewResponse(NewQuery(4, "nxd.example"), nil, 0).Encode()
	f.Add(nx)
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0x0C})
	// Compressed response: answer name points back at the question name.
	f.Add([]byte{
		0x00, 0x05, 0x80, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x01, 'a', 0x02, 'b', 'c', 0x00, 0x00, 0x01, 0x00, 0x01,
		0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 192, 0, 2, 1,
	})
	// Presentation-ambiguous label ('.' inside a label): both must reject.
	f.Add([]byte{
		0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x02, 'a', '.', 0x00, 0x00, 0x01, 0x00, 0x01,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeAlloc(data)
		var arena Arena
		var msg Message
		gotErr := DecodeInto(data, &msg, &arena)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject disagreement: oracle err=%v, DecodeInto err=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		assertSameMessage(t, "first decode", want, &msg)
		// Arena reuse: decoding the same packet again into the same arena
		// must reproduce the message (stale state from the previous decode
		// must not bleed through).
		if err := DecodeInto(data, &msg, &arena); err != nil {
			t.Fatalf("second DecodeInto rejected an accepted packet: %v", err)
		}
		assertSameMessage(t, "arena reuse", want, &msg)
	})
}

// assertSameMessage fails the test when two decoded messages differ in any
// field the codec preserves.
func assertSameMessage(t *testing.T, stage string, want, got *Message) {
	t.Helper()
	if want.Header != got.Header {
		t.Fatalf("%s: header\noracle     %+v\nDecodeInto %+v", stage, want.Header, got.Header)
	}
	if len(want.Questions) != len(got.Questions) {
		t.Fatalf("%s: question count %d vs %d", stage, len(want.Questions), len(got.Questions))
	}
	for i := range want.Questions {
		if want.Questions[i] != got.Questions[i] {
			t.Fatalf("%s: question %d\noracle     %+v\nDecodeInto %+v", stage, i, want.Questions[i], got.Questions[i])
		}
	}
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: answer count %d vs %d", stage, len(want.Answers), len(got.Answers))
	}
	for i := range want.Answers {
		a, b := want.Answers[i], got.Answers[i]
		if a.Name != b.Name || a.Type != b.Type || a.Class != b.Class || a.TTL != b.TTL || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("%s: answer %d\noracle     %+v\nDecodeInto %+v", stage, i, a, b)
		}
	}
}

// FuzzDecodeMessage is the full message round-trip fuzzer: any datagram
// that Decode accepts must re-encode and decode again into the SAME
// message — header flags, questions and answers all preserved. (Sections
// the codec deliberately drops — authority/additional counts, name
// compression — are normalised by the first decode, so the identity is
// checked between first and second decode, not against the raw input.)
func FuzzDecodeMessage(f *testing.F) {
	q, _ := NewQuery(0x1234, "seed.example.com").Encode()
	f.Add(q)
	resp, _ := NewResponse(NewQuery(2, "pool-domain.biz"), net.ParseIP("192.0.2.1"), 300).Encode()
	f.Add(resp)
	resp6, _ := NewResponse(NewQuery(3, "v6.example"), net.ParseIP("2001:db8::1"), 60).Encode()
	f.Add(resp6)
	nx, _ := NewResponse(NewQuery(4, "nxd.example"), nil, 0).Encode()
	f.Add(nx)
	// Compressed response: answer name points back at the question name.
	f.Add([]byte{
		0x00, 0x05, 0x80, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x01, 'a', 0x02, 'b', 'c', 0x00, 0x00, 0x01, 0x00, 0x01,
		0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 192, 0, 2, 1,
	})
	// Regression: a raw '.' inside a wire label ("a.") used to decode into
	// a name that re-encoded as a different name ("a"); Decode now rejects
	// presentation-ambiguous labels.
	f.Add([]byte{
		0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x02, 'a', '.', 0x00, 0x00, 0x01, 0x00, 0x01,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := Decode(data)
		if err != nil {
			return
		}
		wire, err := m1.Encode()
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v\n%+v", err, m1)
		}
		m2, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		// Counts of dropped sections are normalised away by Encode.
		h1, h2 := m1.Header, m2.Header
		h1.NSCount, h1.ARCount, h1.QDCount, h1.ANCount = 0, 0, 0, 0
		h2.NSCount, h2.ARCount, h2.QDCount, h2.ANCount = 0, 0, 0, 0
		if h1 != h2 {
			t.Fatalf("header not preserved:\n first %+v\nsecond %+v", h1, h2)
		}
		if len(m1.Questions) != len(m2.Questions) {
			t.Fatalf("question count %d → %d", len(m1.Questions), len(m2.Questions))
		}
		for i := range m1.Questions {
			if m1.Questions[i] != m2.Questions[i] {
				t.Fatalf("question %d not preserved: %+v → %+v", i, m1.Questions[i], m2.Questions[i])
			}
		}
		if len(m1.Answers) != len(m2.Answers) {
			t.Fatalf("answer count %d → %d", len(m1.Answers), len(m2.Answers))
		}
		for i := range m1.Answers {
			a, b := m1.Answers[i], m2.Answers[i]
			if a.Name != b.Name || a.Type != b.Type || a.Class != b.Class || a.TTL != b.TTL || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("answer %d not preserved: %+v → %+v", i, a, b)
			}
		}
	})
}
