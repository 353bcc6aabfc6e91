package dnswire

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

// messagesEqual compares two decoded messages field for field (the
// differential contract between decodeAlloc and DecodeInto).
func messagesEqual(a, b *Message) bool {
	if a.Header != b.Header {
		return false
	}
	if len(a.Questions) != len(b.Questions) || len(a.Answers) != len(b.Answers) {
		return false
	}
	for i := range a.Questions {
		if a.Questions[i] != b.Questions[i] {
			return false
		}
	}
	for i := range a.Answers {
		x, y := a.Answers[i], b.Answers[i]
		if x.Name != y.Name || x.Type != y.Type || x.Class != y.Class || x.TTL != y.TTL || !bytes.Equal(x.Data, y.Data) {
			return false
		}
	}
	return true
}

// wireCorpus builds the packets the arena decoder must agree with
// decodeAlloc on: queries, positive/negative/AAAA responses, compression pointers,
// empty names, and assorted malformed inputs.
func wireCorpus(t testing.TB) [][]byte {
	t.Helper()
	var corpus [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			t.Fatalf("corpus encode: %v", err)
		}
		corpus = append(corpus, b)
	}
	add(NewQuery(1, "seed.example.com").Encode())
	add(NewQuery(0xFFFF, "a.b.c.d.e.f.g").Encode())
	add(NewResponse(NewQuery(2, "pool-domain.biz"), net.ParseIP("192.0.2.1"), 300).Encode())
	add(NewResponse(NewQuery(3, "v6.example"), net.ParseIP("2001:db8::1"), 60).Encode())
	add(NewResponse(NewQuery(4, "nxd.example"), nil, 0).Encode())
	// Root-name query (empty name) and a multi-question message.
	multi := &Message{
		Header: Header{ID: 9, RD: true},
		Questions: []Question{
			{Name: "one.example", Type: TypeA, Class: ClassIN},
			{Name: "two.example", Type: TypeAAAA, Class: ClassIN},
		},
	}
	add(multi.Encode())
	add((&Message{Header: Header{ID: 10}, Questions: []Question{{Name: "", Type: TypeNS, Class: ClassIN}}}).Encode())
	// Compressed response: answer name points back at the question name.
	corpus = append(corpus, []byte{
		0x00, 0x05, 0x80, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x01, 'a', 0x02, 'b', 'c', 0x00, 0x00, 0x01, 0x00, 0x01,
		0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 192, 0, 2, 1,
	})
	// Malformed: short header, truncated question, pointer loop, reserved
	// label type, '.' inside a label, truncated rdata.
	corpus = append(corpus,
		[]byte{},
		[]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'a', 'b'},
		[]byte{0xC0, 0x0C},
		[]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1},
		[]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 'x', 0, 0, 1, 0, 1},
		[]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x02, 'a', '.', 0, 0, 1, 0, 1},
		[]byte{
			0x00, 0x05, 0x80, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
			0x01, 'a', 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x10, 1, 2,
		},
	)
	return corpus
}

func TestDecodeIntoMatchesDecodeCorpus(t *testing.T) {
	var arena Arena
	var msg Message
	for i, pkt := range wireCorpus(t) {
		want, wantErr := decodeAlloc(pkt)
		gotErr := DecodeInto(pkt, &msg, &arena)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("packet %d: oracle err=%v, DecodeInto err=%v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !messagesEqual(want, &msg) {
			t.Fatalf("packet %d:\noracle     %+v\nDecodeInto %+v", i, want, &msg)
		}
	}
}

// TestDecodeIntoReuseInvalidates pins the arena lifetime rule: decoding a
// second message invalidates the first message's strings in place.
func TestDecodeIntoReuseInvalidates(t *testing.T) {
	var arena Arena
	var msg Message
	q1, _ := NewQuery(1, "first.example.com").Encode()
	q2, _ := NewQuery(2, "second-name.example.org").Encode()
	if err := DecodeInto(q1, &msg, &arena); err != nil {
		t.Fatal(err)
	}
	name1 := msg.Questions[0].Name
	if name1 != "first.example.com" {
		t.Fatalf("first decode name = %q", name1)
	}
	stable := strings.Clone(name1)
	if err := DecodeInto(q2, &msg, &arena); err != nil {
		t.Fatal(err)
	}
	if msg.Questions[0].Name != "second-name.example.org" {
		t.Fatalf("second decode name = %q", msg.Questions[0].Name)
	}
	// name1 aliases arena memory that the second decode overwrote; only the
	// explicit copy is still trustworthy.
	if stable != "first.example.com" {
		t.Fatalf("cloned name corrupted: %q", stable)
	}
}

func TestDecodeIntoLowerASCII(t *testing.T) {
	var arena Arena
	arena.LowerASCII = true
	var msg Message
	pkt, _ := NewQuery(7, "MiXeD.ExAmPlE.CoM").Encode()
	if err := DecodeInto(pkt, &msg, &arena); err != nil {
		t.Fatal(err)
	}
	if got := msg.Questions[0].Name; got != "mixed.example.com" {
		t.Fatalf("LowerASCII name = %q, want %q", got, "mixed.example.com")
	}
}

// TestDecodeIntoZeroAllocs is the steady-state allocation gate of the wire
// fast path: once the arena has grown to the working set, DecodeInto must
// not touch the heap.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	query, _ := NewQuery(1, "alloc-test.pool-domain.example.com").Encode()
	resp, _ := NewResponse(NewQuery(2, "answer.example.net"), net.ParseIP("192.0.2.7"), 60).Encode()
	var arena Arena
	var msg Message
	for _, pkt := range [][]byte{query, resp} {
		pkt := pkt
		// Warm the arena to its high-water mark.
		if err := DecodeInto(pkt, &msg, &arena); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := DecodeInto(pkt, &msg, &arena); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("DecodeInto allocates %.1f allocs/op steady-state, want 0", allocs)
		}
	}
}

// TestAppendEncodeZeroAllocs gates the encode side: appending into a
// warmed caller-owned buffer must not allocate.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	msg := NewResponse(NewQuery(3, "enc.example.com"), net.ParseIP("192.0.2.9"), 300)
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = msg.AppendEncode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendEncode allocates %.1f allocs/op steady-state, want 0", allocs)
	}
	// The appended image must equal what Encode produces.
	want, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("AppendEncode image differs from Encode:\n%x\n%x", buf, want)
	}
}
