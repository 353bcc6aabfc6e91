package dnswire

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Arena is the reusable backing store of the zero-copy decode fast path
// (DESIGN.md §19). DecodeInto parses domain names into the arena's byte
// buffer and the question/answer sections into arena-owned slices, so a
// steady-state decode performs no heap allocations at all: every buffer is
// grown once to the high-water mark of the traffic and then recycled.
//
// Lifetime rules — the arena trades allocation for aliasing, and the
// aliasing has sharp edges:
//
//   - Every string and byte slice in a Message decoded with DecodeInto
//     aliases arena memory. The next DecodeInto (or Reset) on the same
//     arena INVALIDATES all of them in place.
//   - Anything that must outlive the current packet — a cache key, a trace
//     record, a string sent down a channel — must be copied first
//     (strings.Clone, or interned through a symtab.Table, which stores the
//     copy once and hands back the same stable string forever after).
//   - An Arena is single-goroutine state: one arena per socket worker,
//     never shared.
//
// The zero value is ready to use.
type Arena struct {
	// LowerASCII, when set, lowercases ASCII label bytes ('A'–'Z') as they
	// are copied into the arena, so decoded names arrive already in the
	// canonical form the caches and the zone use. DNS case-insensitivity is
	// ASCII-only (RFC 4343), so this is exact for any name that can appear
	// in a query; bytes ≥ 0x80 are copied verbatim. Leave it unset when
	// byte-for-byte agreement with the wire is required (Decode and the
	// differential fuzz target run with it off).
	LowerASCII bool

	names []byte // decoded presentation-form name bytes, all sections
	data  []byte // answer rdata bytes
	q     []Question
	rr    []ResourceRecord
	spans []span // scratch offsets, resolved after parsing (backing arrays may move)
}

// span is a region of the arena's names or data buffer recorded during
// parsing. Offsets are resolved into strings/slices only after the whole
// message has been parsed, because append growth may move the backing
// arrays mid-parse.
type span struct {
	off, n int32
}

// Reset discards the previous message, invalidating every string and slice
// it handed out, and readies the arena for the next DecodeInto. DecodeInto
// calls it implicitly.
func (a *Arena) Reset() {
	a.names = a.names[:0]
	a.data = a.data[:0]
	a.q = a.q[:0]
	a.rr = a.rr[:0]
	a.spans = a.spans[:0]
}

// arenaString views a region of the arena as a string without copying.
// The string is valid only until the arena's next Reset/DecodeInto.
func arenaString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeInto parses a wire-format message into msg using a's storage,
// following compression pointers — the package's one parser. It accepts and
// rejects exactly the inputs a plain label-joining parse does, and produces
// the same messages field for field (the allocating oracle in the tests,
// held to it by FuzzDecodeIntoMatchesDecode), but performs zero heap
// allocations once the arena has grown to the traffic's working set. On
// error msg and the arena hold unspecified partial state; the next
// DecodeInto starts clean.
func DecodeInto(b []byte, msg *Message, a *Arena) error {
	a.Reset()
	if len(b) < 12 {
		return fmt.Errorf("dnswire: message too short (%d bytes)", len(b))
	}
	msg.Header.ID = binary.BigEndian.Uint16(b[0:2])
	flags := binary.BigEndian.Uint16(b[2:4])
	msg.Header.QR = flags&(1<<15) != 0
	msg.Header.Opcode = uint8(flags >> 11 & 0xF)
	msg.Header.AA = flags&(1<<10) != 0
	msg.Header.TC = flags&(1<<9) != 0
	msg.Header.RD = flags&(1<<8) != 0
	msg.Header.RA = flags&(1<<7) != 0
	msg.Header.Rcode = uint8(flags & 0xF)
	msg.Header.QDCount = binary.BigEndian.Uint16(b[4:6])
	msg.Header.ANCount = binary.BigEndian.Uint16(b[6:8])
	msg.Header.NSCount = binary.BigEndian.Uint16(b[8:10])
	msg.Header.ARCount = binary.BigEndian.Uint16(b[10:12])

	off := 12
	for i := 0; i < int(msg.Header.QDCount); i++ {
		nameSpan, next, err := a.decodeName(b, off)
		if err != nil {
			return err
		}
		if next+4 > len(b) {
			return fmt.Errorf("dnswire: truncated question")
		}
		a.q = append(a.q, Question{
			Type:  binary.BigEndian.Uint16(b[next : next+2]),
			Class: binary.BigEndian.Uint16(b[next+2 : next+4]),
		})
		a.spans = append(a.spans, nameSpan)
		off = next + 4
	}
	for i := 0; i < int(msg.Header.ANCount); i++ {
		nameSpan, next, err := a.decodeName(b, off)
		if err != nil {
			return err
		}
		if next+10 > len(b) {
			return fmt.Errorf("dnswire: truncated resource record")
		}
		rr := ResourceRecord{
			Type:  binary.BigEndian.Uint16(b[next : next+2]),
			Class: binary.BigEndian.Uint16(b[next+2 : next+4]),
			TTL:   binary.BigEndian.Uint32(b[next+4 : next+8]),
		}
		rdlen := int(binary.BigEndian.Uint16(b[next+8 : next+10]))
		next += 10
		if next+rdlen > len(b) {
			return fmt.Errorf("dnswire: truncated rdata")
		}
		dataOff := int32(len(a.data))
		a.data = append(a.data, b[next:next+rdlen]...)
		a.rr = append(a.rr, rr)
		a.spans = append(a.spans, nameSpan, span{off: dataOff, n: int32(rdlen)})
		off = next + rdlen
	}
	// Authority and additional sections are skipped structurally.

	// Fix-up pass: the names/data backing arrays can no longer move, so the
	// recorded spans can safely be materialised as aliasing strings/slices.
	si := 0
	for i := range a.q {
		s := a.spans[si]
		a.q[i].Name = arenaString(a.names[s.off : s.off+s.n])
		si++
	}
	for i := range a.rr {
		s := a.spans[si]
		a.rr[i].Name = arenaString(a.names[s.off : s.off+s.n])
		d := a.spans[si+1]
		if d.n > 0 {
			a.rr[i].Data = a.data[d.off : d.off+d.n : d.off+d.n]
		} else {
			// Empty rdata is nil, as a fresh copy of nothing is, so messages
			// compare field-for-field equal whatever arena decoded them.
			a.rr[i].Data = nil
		}
		si += 2
	}
	msg.Questions = a.q
	msg.Answers = a.rr
	if len(a.q) == 0 {
		msg.Questions = nil
	}
	if len(a.rr) == 0 {
		msg.Answers = nil
	}
	return nil
}

// decodeName reads a (possibly compressed) name starting at off, appending
// its presentation-form bytes to a.names, and returns where they lie with the
// offset just past the name's in-place encoding.
func (a *Arena) decodeName(b []byte, off int) (span, int, error) {
	start := len(a.names)
	labels := 0
	jumped := false
	next := off
	hops := 0
	for {
		if off >= len(b) {
			return span{}, 0, fmt.Errorf("dnswire: name runs past message end")
		}
		l := int(b[off])
		switch {
		case l == 0:
			if !jumped {
				next = off + 1
			}
			n := len(a.names) - start
			if n > maxNameLen {
				return span{}, 0, fmt.Errorf("dnswire: decoded name too long")
			}
			return span{off: int32(start), n: int32(n)}, next, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return span{}, 0, fmt.Errorf("dnswire: truncated compression pointer")
			}
			ptr := int(binary.BigEndian.Uint16(b[off:off+2]) & 0x3FFF)
			if !jumped {
				next = off + 2
			}
			jumped = true
			hops++
			if hops > 32 || ptr >= len(b) {
				return span{}, 0, fmt.Errorf("dnswire: compression pointer loop")
			}
			off = ptr
		case l&0xC0 != 0:
			return span{}, 0, fmt.Errorf("dnswire: reserved label type 0x%02x", l)
		default:
			if off+1+l > len(b) {
				return span{}, 0, fmt.Errorf("dnswire: truncated label")
			}
			if labels > 0 {
				a.names = append(a.names, '.')
			}
			at := len(a.names)
			a.names = append(a.names, b[off+1:off+1+l]...)
			for i := at; i < len(a.names); i++ {
				c := a.names[i]
				// A raw '.' inside a label has no unambiguous presentation
				// form in this non-escaping codec: "a." would re-encode as
				// the label "a" (found by FuzzDecodeMessage). DGA domains
				// never contain one; reject instead of silently mangling.
				if c == '.' {
					return span{}, 0, fmt.Errorf("dnswire: label contains '.'")
				}
				if a.LowerASCII && c >= 'A' && c <= 'Z' {
					a.names[i] = c + ('a' - 'A')
				}
			}
			labels++
			if labels > 128 {
				return span{}, 0, fmt.Errorf("dnswire: too many labels")
			}
			off += 1 + l
		}
	}
}
