package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// decodeAlloc parses a wire-format message, following compression pointers,
// the plain way: a []string of labels joined per name, a fresh slice per
// rdata. It is the oracle DecodeInto is held to (FuzzDecodeIntoMatchesDecode,
// TestDecodeIntoMatchesDecodeCorpus) — an independent parse, where comparing
// against Decode would compare DecodeInto with itself.
func decodeAlloc(b []byte) (*Message, error) {
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
		name, next, err := decodeNameAlloc(b, off)
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
		rr, next, err := decodeRRAlloc(b, off)
		if err != nil {
			return nil, err
		}
		m.Answers = append(m.Answers, rr)
		off = next
	}
	// Authority and additional sections are skipped structurally.
	return &m, nil
}

func decodeRRAlloc(b []byte, off int) (ResourceRecord, int, error) {
	name, next, err := decodeNameAlloc(b, off)
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

// decodeNameAlloc reads a (possibly compressed) name starting at off and returns
// it with the offset just past its in-place encoding.
func decodeNameAlloc(b []byte, off int) (string, int, error) {
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
