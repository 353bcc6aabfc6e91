// Package dnswire implements the subset of the RFC 1035 DNS wire format
// that a vantage-point tap needs: encoding and decoding of query and
// response messages with QUESTION sections, A/AAAA answers and NXDOMAIN
// response codes, including domain-name compression on decode. It lets the
// cmd/vantage daemon parse real forwarded queries off the wire and turn
// them into trace.Observed records, closing the loop between the simulator
// and an actual deployment.
package dnswire

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
)

// Record types used by the tap.
const (
	TypeA     uint16 = 1
	TypeNS    uint16 = 2
	TypeCNAME uint16 = 5
	TypeTXT   uint16 = 16
	TypeAAAA  uint16 = 28
)

// ClassIN is the Internet class.
const ClassIN uint16 = 1

// Response codes.
const (
	RcodeNoError  = 0
	RcodeFormErr  = 1
	RcodeServFail = 2
	RcodeNXDomain = 3
)

// Header is the fixed 12-byte DNS message header.
type Header struct {
	ID      uint16
	QR      bool // response flag
	Opcode  uint8
	AA      bool
	TC      bool
	RD      bool
	RA      bool
	Rcode   uint8
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// Question is one entry of the QUESTION section.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// ResourceRecord is one answer/authority/additional record.
type ResourceRecord struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// Message is a decoded DNS message (answers only; authority/additional are
// decoded structurally but not interpreted).
type Message struct {
	Header    Header
	Questions []Question
	Answers   []ResourceRecord
}

// maxNameLen bounds a presentation-format domain name.
const maxNameLen = 255

// Encode serialises the message into a fresh buffer. Name compression is
// not emitted (it is optional for senders); names must be valid
// presentation-format FQDNs.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 64))
}

// AppendEncode serialises the message, appending the wire image to buf and
// returning the extended slice — the zero-allocation twin of Encode for
// callers that own a reusable buffer (socket workers, the loadgen's packet
// factory) or rent one from GetBuf. On error the returned slice's contents
// past the original length are unspecified; callers reusing a buffer
// re-slice it to [:0] anyway.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	flags := uint16(0)
	if m.Header.QR {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.AA {
		flags |= 1 << 10
	}
	if m.Header.TC {
		flags |= 1 << 9
	}
	if m.Header.RD {
		flags |= 1 << 8
	}
	if m.Header.RA {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.Rcode & 0xF)

	buf = binary.BigEndian.AppendUint16(buf, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 0)

	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, rr := range m.Answers {
		if buf, err = appendName(buf, rr.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, rr.Type)
		buf = binary.BigEndian.AppendUint16(buf, rr.Class)
		buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
		if len(rr.Data) > 0xFFFF {
			return nil, fmt.Errorf("dnswire: rdata too long (%d)", len(rr.Data))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(rr.Data)))
		buf = append(buf, rr.Data...)
	}
	return buf, nil
}

// appendName writes a presentation-format name as length-prefixed labels.
// Labels are sliced out in place (no strings.Split) so encoding a valid
// name allocates nothing beyond buffer growth.
func appendName(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("dnswire: name too long: %q", name)
	}
	if name == "" {
		return append(buf, 0), nil
	}
	start := 0
	for i := 0; i <= len(name); i++ {
		if i < len(name) && name[i] != '.' {
			continue
		}
		label := name[start:i]
		if label == "" {
			return nil, fmt.Errorf("dnswire: empty label in %q", name)
		}
		if len(label) > 63 {
			return nil, fmt.Errorf("dnswire: label too long in %q", name)
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		start = i + 1
	}
	return append(buf, 0), nil
}

// Decode parses a wire-format message, following compression pointers, into
// a message of its own: DecodeInto over a fresh arena that is never reset, so
// the message's strings and slices stay valid. A per-packet path keeps one
// arena per worker and calls DecodeInto instead.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(b, m, new(Arena)); err != nil {
		return nil, err
	}
	return m, nil
}

// NewQuery builds a standard recursive A query for a domain.
func NewQuery(id uint16, domain string) *Message {
	return &Message{
		Header:    Header{ID: id, RD: true},
		Questions: []Question{{Name: domain, Type: TypeA, Class: ClassIN}},
	}
}

// NewResponse builds a response to q. If ip is nil the response is
// NXDOMAIN; otherwise it carries one A (or AAAA) answer with the given TTL.
func NewResponse(q *Message, ip net.IP, ttl uint32) *Message {
	resp := &Message{
		Header: Header{
			ID: q.Header.ID, QR: true, RD: q.Header.RD, RA: true, AA: true,
		},
		Questions: q.Questions,
	}
	if ip == nil {
		resp.Header.Rcode = RcodeNXDomain
		return resp
	}
	if len(q.Questions) == 0 {
		return resp
	}
	typ := TypeA
	data := ip.To4()
	if data == nil {
		typ = TypeAAAA
		data = ip.To16()
	}
	resp.Answers = []ResourceRecord{{
		Name: q.Questions[0].Name, Type: typ, Class: ClassIN, TTL: ttl, Data: data,
	}}
	return resp
}

// Responder encodes a server's own responses into a buffer it reuses — the
// allocation-free twin of NewResponse + Encode for socket workers. Like an
// Arena it is single-goroutine state.
type Responder struct {
	msg Message
	rr  [1]ResourceRecord
	buf []byte
}

// Respond encodes the response to the query with header ID id and RD bit rd
// that asked qs, echoing every question. A non-nil data is one answer of
// type typ for qs[0] with ttl; without it the response has no answer, as an
// NXDOMAIN does. SERVFAIL is a relayed failure, so it is neither
// authoritative nor a recursion offer. The bytes are valid until the next
// Respond; a name that does not encode gives nil.
func (r *Responder) Respond(id uint16, rd bool, qs []Question, rcode uint8, typ uint16, data []byte, ttl uint32) []byte {
	auth := rcode != RcodeServFail
	r.msg = Message{Header: Header{ID: id, QR: true, RD: rd, RA: auth, AA: auth, Rcode: rcode}, Questions: qs}
	if data != nil && len(qs) > 0 {
		r.rr[0] = ResourceRecord{Name: qs[0].Name, Type: typ, Class: ClassIN, TTL: ttl, Data: data}
		r.msg.Answers = r.rr[:]
	}
	b, err := r.msg.AppendEncode(r.buf[:0])
	if err != nil {
		return nil
	}
	r.buf = b
	return b
}
