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

// Decode parses a wire-format message, following compression pointers.
func Decode(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("dnswire: message too short (%d bytes)", len(b))
	}
	var m Message
	m.Header.ID = binary.BigEndian.Uint16(b[0:2])
	flags := binary.BigEndian.Uint16(b[2:4])
	m.Header.QR = flags&(1<<15) != 0
	m.Header.Opcode = uint8(flags >> 11 & 0xF)
	m.Header.AA = flags&(1<<10) != 0
	m.Header.TC = flags&(1<<9) != 0
	m.Header.RD = flags&(1<<8) != 0
	m.Header.RA = flags&(1<<7) != 0
	m.Header.Rcode = uint8(flags & 0xF)
	m.Header.QDCount = binary.BigEndian.Uint16(b[4:6])
	m.Header.ANCount = binary.BigEndian.Uint16(b[6:8])
	m.Header.NSCount = binary.BigEndian.Uint16(b[8:10])
	m.Header.ARCount = binary.BigEndian.Uint16(b[10:12])

	off := 12
	for i := 0; i < int(m.Header.QDCount); i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(b) {
			return nil, fmt.Errorf("dnswire: truncated question")
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[next : next+2]),
			Class: binary.BigEndian.Uint16(b[next+2 : next+4]),
		})
		off = next + 4
	}
	for i := 0; i < int(m.Header.ANCount); i++ {
		rr, next, err := decodeRR(b, off)
		if err != nil {
			return nil, err
		}
		m.Answers = append(m.Answers, rr)
		off = next
	}
	// Authority and additional sections are skipped structurally.
	return &m, nil
}

func decodeRR(b []byte, off int) (ResourceRecord, int, error) {
	name, next, err := decodeName(b, off)
	if err != nil {
		return ResourceRecord{}, 0, err
	}
	if next+10 > len(b) {
		return ResourceRecord{}, 0, fmt.Errorf("dnswire: truncated resource record")
	}
	rr := ResourceRecord{
		Name:  name,
		Type:  binary.BigEndian.Uint16(b[next : next+2]),
		Class: binary.BigEndian.Uint16(b[next+2 : next+4]),
		TTL:   binary.BigEndian.Uint32(b[next+4 : next+8]),
	}
	rdlen := int(binary.BigEndian.Uint16(b[next+8 : next+10]))
	next += 10
	if next+rdlen > len(b) {
		return ResourceRecord{}, 0, fmt.Errorf("dnswire: truncated rdata")
	}
	rr.Data = append([]byte(nil), b[next:next+rdlen]...)
	return rr, next + rdlen, nil
}

// decodeName reads a (possibly compressed) name starting at off and returns
// it with the offset just past its in-place encoding.
func decodeName(b []byte, off int) (string, int, error) {
	var labels []string
	jumped := false
	next := off
	hops := 0
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("dnswire: name runs past message end")
		}
		l := int(b[off])
		switch {
		case l == 0:
			if !jumped {
				next = off + 1
			}
			name := strings.Join(labels, ".")
			if len(name) > maxNameLen {
				return "", 0, fmt.Errorf("dnswire: decoded name too long")
			}
			return name, next, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return "", 0, fmt.Errorf("dnswire: truncated compression pointer")
			}
			ptr := int(binary.BigEndian.Uint16(b[off:off+2]) & 0x3FFF)
			if !jumped {
				next = off + 2
			}
			jumped = true
			hops++
			if hops > 32 || ptr >= len(b) {
				return "", 0, fmt.Errorf("dnswire: compression pointer loop")
			}
			off = ptr
		case l&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", l)
		default:
			if off+1+l > len(b) {
				return "", 0, fmt.Errorf("dnswire: truncated label")
			}
			label := string(b[off+1 : off+1+l])
			// A raw '.' inside a label has no unambiguous presentation
			// form in this non-escaping codec: "a." would re-encode as
			// the label "a" (found by FuzzDecodeMessage). DGA domains
			// never contain one; reject instead of silently mangling.
			if strings.Contains(label, ".") {
				return "", 0, fmt.Errorf("dnswire: label contains '.'")
			}
			labels = append(labels, label)
			if len(labels) > 128 {
				return "", 0, fmt.Errorf("dnswire: too many labels")
			}
			off += 1 + l
		}
	}
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
