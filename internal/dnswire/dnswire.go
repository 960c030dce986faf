// Package dnswire implements the DNS message wire format (RFC 1035) needed
// by the backscatter sensor: headers, questions, and resource records with
// name compression, plus PTR/in-addr.arpa conveniences.
//
// The sensor's collection path parses every query arriving at an authority
// (§III-A), so decoding is designed in the gopacket DecodingLayer style:
// DecodeInto parses into a caller-owned Message, reusing its slices, and
// name decoding never aliases the input buffer, so the buffer may be
// recycled immediately (the safe variant of zero-copy).
package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Record types and classes used by the sensor.
const (
	TypeA   uint16 = 1
	TypeNS  uint16 = 2
	TypeSOA uint16 = 6
	TypePTR uint16 = 12
	TypeSRV uint16 = 33

	ClassIN uint16 = 1
)

// Response codes.
const (
	RCodeNoError  uint8 = 0
	RCodeFormErr  uint8 = 1
	RCodeServFail uint8 = 2
	RCodeNXDomain uint8 = 3
)

// Opcodes.
const (
	OpcodeQuery uint8 = 0
)

// Header flag bits within the 16-bit flags word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// Errors returned by the decoder.
var (
	ErrTruncated     = errors.New("dnswire: message truncated")
	ErrBadPointer    = errors.New("dnswire: bad compression pointer")
	ErrNameTooLong   = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong  = errors.New("dnswire: label exceeds 63 octets")
	ErrTooManyRRs    = errors.New("dnswire: section count exceeds message size")
	ErrTrailingBytes = errors.New("dnswire: trailing bytes after message")
	ErrDotInLabel    = errors.New("dnswire: label contains '.'")
)

// Header is the fixed 12-octet DNS header.
type Header struct {
	ID      uint16
	QR      bool // response flag
	Opcode  uint8
	AA      bool // authoritative answer
	TC      bool // truncated
	RD      bool // recursion desired
	RA      bool // recursion available
	RCode   uint8
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// RR is a resource record. RData holds the raw bytes except for PTR/NS
// records, whose decompressed target name is in Target.
type RR struct {
	Name   string
	Type   uint16
	Class  uint16
	TTL    uint32
	Target string // decoded name for PTR/NS
	RData  []byte // raw rdata for other types
}

// Message is a whole DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Reset clears m for reuse, keeping the section slices' capacity.
func (m *Message) Reset() {
	m.Header = Header{}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
}

// NewPTRQuery builds the reverse query a querier sends for name (already in
// 4.3.2.1.in-addr.arpa form) with the given transaction ID.
func NewPTRQuery(id uint16, name string) *Message {
	m := new(Message)
	m.SetPTRQuery(id, name)
	return m
}

// SetPTRQuery resets m in place to the reverse query NewPTRQuery would
// build, reusing m's section slices. Callers on encode hot paths pair it
// with AcquireMessage/ReleaseMessage to build queries without allocating.
func (m *Message) SetPTRQuery(id uint16, name string) {
	m.Reset()
	m.Header = Header{ID: id, RD: true, QDCount: 1}
	m.Questions = append(m.Questions, Question{Name: name, Type: TypePTR, Class: ClassIN})
}

// NewResponse builds a response to q with the given rcode. Answers may be
// appended by the caller; counts are fixed up at Append/Encode time.
func NewResponse(q *Message, rcode uint8) *Message {
	r := new(Message)
	r.SetResponse(q, rcode)
	return r
}

// SetResponse resets m in place to the response NewResponse would build,
// reusing m's section slices.
func (m *Message) SetResponse(q *Message, rcode uint8) {
	m.Reset()
	m.Header = q.Header
	m.Header.QR, m.Header.RCode = true, rcode
	m.Questions = append(m.Questions, q.Questions...)
	m.Header.QDCount, m.Header.ANCount, m.Header.NSCount, m.Header.ARCount = uint16(len(m.Questions)), 0, 0, 0
}

// AddAnswer appends a PTR answer record.
func (m *Message) AddAnswer(rr RR) {
	m.Answers = append(m.Answers, rr)
	m.Header.ANCount = uint16(len(m.Answers))
}

// flags packs the header flag word.
func (h *Header) flags() uint16 {
	var f uint16
	if h.QR {
		f |= flagQR
	}
	f |= uint16(h.Opcode&0xf) << 11
	if h.AA {
		f |= flagAA
	}
	if h.TC {
		f |= flagTC
	}
	if h.RD {
		f |= flagRD
	}
	if h.RA {
		f |= flagRA
	}
	f |= uint16(h.RCode & 0xf)
	return f
}

func (h *Header) setFlags(f uint16) {
	h.QR = f&flagQR != 0
	h.Opcode = uint8(f>>11) & 0xf
	h.AA = f&flagAA != 0
	h.TC = f&flagTC != 0
	h.RD = f&flagRD != 0
	h.RA = f&flagRA != 0
	h.RCode = uint8(f & 0xf)
}

// encoder carries the output buffer and the Encoder whose table it fills.
type encoder struct {
	buf []byte
	enc *Encoder
}

// written is one name suffix in the compression table and its offset.
type written struct {
	name string
	off  int
}

// Encode appends the wire form of m to dst and returns the extended slice.
// Section counts in the header are taken from the slice lengths, not the
// Header fields, so callers cannot desynchronize them.
//
// Encode borrows a pooled Encoder for the call; loops that encode many
// messages can hold one Encoder (AcquireEncoder) and call its Encode
// method directly to skip even the pool round-trip. Output bytes are
// identical either way.
func (m *Message) Encode(dst []byte) ([]byte, error) {
	enc := AcquireEncoder()
	out, err := enc.Encode(m, dst)
	ReleaseEncoder(enc)
	return out, err
}

// Encode appends the wire form of m to dst and returns the extended
// slice, exactly as Message.Encode does. The encoder's compression table
// is cleared and rebuilt per call, so output bytes never depend on what
// the Encoder encoded before.
func (enc *Encoder) Encode(m *Message, dst []byte) ([]byte, error) {
	enc.names = enc.names[:0]
	e := encoder{buf: dst, enc: enc}
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))

	e.u16(h.ID)
	e.u16(h.flags())
	e.u16(h.QDCount)
	e.u16(h.ANCount)
	e.u16(h.NSCount)
	e.u16(h.ARCount)

	for i := range m.Questions {
		q := &m.Questions[i]
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.u16(q.Type)
		e.u16(q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := e.rr(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

func (e *encoder) u16(v uint16) {
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

func (e *encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// name encodes a domain name with compression against earlier occurrences.
func (e *encoder) name(name string) error {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		e.buf = append(e.buf, 0)
		return nil
	}
	if strings.HasSuffix(name, ".") {
		// "a.." would otherwise silently drop its empty label and dodge
		// the compression table (keyed on the un-trimmed remainder).
		return fmt.Errorf("dnswire: empty label in %q", name)
	}
	if len(name) > 254 {
		return ErrNameTooLong
	}
	rest := name
	for rest != "" {
		// A message holds a few names, so a scan beats hashing each
		// suffix. Compression pointers address 14 bits: only suffixes
		// written below 0x4000 join the table.
		for _, w := range e.enc.names {
			if w.name == rest {
				e.u16(uint16(0xc000 | w.off))
				return nil
			}
		}
		if len(e.buf) < 0x4000 {
			e.enc.names = append(e.enc.names, written{rest, len(e.buf)})
		}
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(label) == 0 {
			return fmt.Errorf("dnswire: empty label in %q", name)
		}
		if len(label) > 63 {
			return ErrLabelTooLong
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) rr(rr *RR) error {
	if err := e.name(rr.Name); err != nil {
		return err
	}
	e.u16(rr.Type)
	e.u16(rr.Class)
	e.u32(rr.TTL)
	switch rr.Type {
	case TypePTR, TypeNS:
		// Reserve the length, encode the (possibly compressed) name,
		// then patch the actual rdata length.
		lenAt := len(e.buf)
		e.u16(0)
		start := len(e.buf)
		if err := e.name(rr.Target); err != nil {
			return err
		}
		rdlen := len(e.buf) - start
		e.buf[lenAt] = byte(rdlen >> 8)
		e.buf[lenAt+1] = byte(rdlen)
	default:
		e.u16(uint16(len(rr.RData)))
		e.buf = append(e.buf, rr.RData...)
	}
	return nil
}

// DecodeInto parses data into m, reusing m's section slices. It rejects
// trailing garbage so log replay catches corrupt records.
func DecodeInto(data []byte, m *Message) error {
	m.Reset()
	d := decoder{data: data}
	if len(data) < 12 {
		return ErrTruncated
	}
	m.Header.ID = d.u16()
	m.Header.setFlags(d.u16())
	m.Header.QDCount = d.u16()
	m.Header.ANCount = d.u16()
	m.Header.NSCount = d.u16()
	m.Header.ARCount = d.u16()

	// A question needs ≥5 octets and an RR ≥11; cheap sanity check before
	// looping on attacker-controlled counts.
	totalRRs := int(m.Header.ANCount) + int(m.Header.NSCount) + int(m.Header.ARCount)
	if int(m.Header.QDCount)*5+totalRRs*11 > len(data)-12 {
		return ErrTooManyRRs
	}

	for i := 0; i < int(m.Header.QDCount); i++ {
		var q Question
		var err error
		if q.Name, err = d.name(); err != nil {
			return err
		}
		if q.Type, err = d.u16e(); err != nil {
			return err
		}
		if q.Class, err = d.u16e(); err != nil {
			return err
		}
		m.Questions = append(m.Questions, q)
	}
	var err error
	if m.Answers, err = d.rrs(m.Answers, int(m.Header.ANCount)); err != nil {
		return err
	}
	if m.Authority, err = d.rrs(m.Authority, int(m.Header.NSCount)); err != nil {
		return err
	}
	if m.Additional, err = d.rrs(m.Additional, int(m.Header.ARCount)); err != nil {
		return err
	}
	if d.pos != len(data) {
		return ErrTrailingBytes
	}
	return nil
}

type decoder struct {
	data []byte
	pos  int
}

// u16 reads without bounds checking; only valid inside the pre-checked
// 12-byte header.
func (d *decoder) u16() uint16 {
	v := uint16(d.data[d.pos])<<8 | uint16(d.data[d.pos+1])
	d.pos += 2
	return v
}

func (d *decoder) u16e() (uint16, error) {
	if d.pos+2 > len(d.data) {
		return 0, ErrTruncated
	}
	return d.u16(), nil
}

func (d *decoder) u32e() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, ErrTruncated
	}
	v := uint32(d.data[d.pos])<<24 | uint32(d.data[d.pos+1])<<16 |
		uint32(d.data[d.pos+2])<<8 | uint32(d.data[d.pos+3])
	d.pos += 4
	return v, nil
}

// name decodes a possibly compressed name starting at d.pos, leaving d.pos
// after the name's in-place representation.
func (d *decoder) name() (string, error) {
	s, next, err := decodeName(d.data, d.pos)
	if err != nil {
		return "", err
	}
	d.pos = next
	return s, nil
}

// decodeName reads a name at off, returning the dotted string and the
// offset just past the name's first (non-pointer-target) encoding.
func decodeName(data []byte, off int) (string, int, error) {
	buf := make([]byte, 0, 255) // on the stack: the name's string is its one allocation
	next := -1                  // position after the first pointer, if any
	ptrBudget := len(data)      // any valid chain is shorter than the message
	total := 0
	for {
		if off >= len(data) {
			return "", 0, ErrTruncated
		}
		c := data[off]
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			return string(buf), next, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, ErrTruncated
			}
			target := int(c&0x3f)<<8 | int(data[off+1])
			if target >= off {
				return "", 0, ErrBadPointer // pointers must go backwards
			}
			if next < 0 {
				next = off + 2
			}
			if ptrBudget--; ptrBudget <= 0 {
				return "", 0, ErrBadPointer
			}
			off = target
		case c&0xc0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xc0)
		default:
			l := int(c)
			if off+1+l > len(data) {
				return "", 0, ErrTruncated
			}
			total += l + 1
			if total > 255 {
				return "", 0, ErrNameTooLong
			}
			// The dotted-string form cannot represent a '.' inside a
			// label: "a.b" as one label is indistinguishable from two.
			// Reject it so decode∘encode stays faithful.
			if bytes.IndexByte(data[off+1:off+1+l], '.') >= 0 {
				return "", 0, ErrDotInLabel
			}
			if len(buf) > 0 {
				buf = append(buf, '.')
			}
			buf = append(buf, data[off+1:off+1+l]...)
			off += 1 + l
		}
	}
}

func (d *decoder) rrs(dst []RR, n int) ([]RR, error) {
	for i := 0; i < n; i++ {
		var rr RR
		var err error
		if rr.Name, err = d.name(); err != nil {
			return nil, err
		}
		if rr.Type, err = d.u16e(); err != nil {
			return nil, err
		}
		if rr.Class, err = d.u16e(); err != nil {
			return nil, err
		}
		if rr.TTL, err = d.u32e(); err != nil {
			return nil, err
		}
		rdlen, err := d.u16e()
		if err != nil {
			return nil, err
		}
		if d.pos+int(rdlen) > len(d.data) {
			return nil, ErrTruncated
		}
		switch rr.Type {
		case TypePTR, TypeNS:
			s, next, err := decodeName(d.data, d.pos)
			if err != nil {
				return nil, err
			}
			if next != d.pos+int(rdlen) {
				return nil, fmt.Errorf("dnswire: rdata length %d does not match encoded name", rdlen)
			}
			rr.Target = s
			d.pos = next
		default:
			// Copy rather than alias so the input buffer can be reused.
			rr.RData = append([]byte(nil), d.data[d.pos:d.pos+int(rdlen)]...)
			d.pos += int(rdlen)
		}
		dst = append(dst, rr)
	}
	return dst, nil
}

// IsReversePTRQuery reports whether m is a PTR question against
// in-addr.arpa — the only traffic the backscatter sensor retains (§III-A).
func IsReversePTRQuery(m *Message) bool {
	if m.Header.QR || len(m.Questions) != 1 {
		return false
	}
	q := &m.Questions[0]
	return q.Type == TypePTR && q.Class == ClassIN &&
		strings.HasSuffix(strings.ToLower(strings.TrimSuffix(q.Name, ".")), ".in-addr.arpa")
}
