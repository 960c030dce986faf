// Package ipaddr provides a compact IPv4 address model for the simulator.
//
// The whole reproduction works in IPv4 space (the paper's reverse-DNS
// analysis is against in-addr.arpa). A uint32 representation keeps
// originator/querier bookkeeping allocation-free and lets prefixes be
// simple masks.
package ipaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// FromOctets assembles an address from its four dotted-quad octets.
func FromOctets(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (o0, o1, o2, o3 byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String formats a in dotted-quad notation.
func (a Addr) String() string {
	var b [15]byte
	return string(a.AppendTo(b[:0]))
}

// AppendTo appends a's dotted-quad form, as String writes it, to dst.
func (a Addr) AppendTo(dst []byte) []byte {
	o0, o1, o2, o3 := a.Octets()
	dst = strconv.AppendUint(dst, uint64(o0), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(o1), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(o2), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, uint64(o3), 10)
}

// ErrBadAddr reports a malformed dotted-quad string.
var ErrBadAddr = errors.New("ipaddr: malformed IPv4 address")

// Parse parses a dotted-quad IPv4 address in the form String writes: no
// octet has a leading zero.
func Parse[S ~string | ~[]byte](s S) (Addr, error) {
	var a Addr
	part := 0
	val := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if val == 0 {
				return 0, fmt.Errorf("%w: leading zero in %q", ErrBadAddr, s)
			}
			if val < 0 {
				val = 0
			}
			val = val*10 + int(c-'0')
			if val > 255 {
				return 0, fmt.Errorf("%w: octet > 255 in %q", ErrBadAddr, s)
			}
		case c == '.':
			if val < 0 || part == 3 {
				return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
			}
			a = a<<8 | Addr(val)
			val = -1
			part++
		default:
			return 0, fmt.Errorf("%w: bad byte %q in %q", ErrBadAddr, c, s)
		}
	}
	if part != 3 || val < 0 {
		return 0, fmt.Errorf("%w: %q", ErrBadAddr, s)
	}
	return a<<8 | Addr(val), nil
}

// MustParse is Parse for tests and constants; it panics on error.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Slash8 returns the first octet, identifying a's /8 block.
func (a Addr) Slash8() byte { return byte(a >> 24) }

// Slash16 returns a's /16 prefix as a 16-bit value (first two octets).
func (a Addr) Slash16() uint16 { return uint16(a >> 16) }

// Slash24 returns a's /24 prefix as a 24-bit value (first three octets).
func (a Addr) Slash24() uint32 { return uint32(a >> 8) }

// Prefix is a CIDR prefix.
type Prefix struct {
	Base Addr
	Bits int
}

// NewPrefix returns the prefix of the given length containing a,
// normalizing the base address. It panics for bits outside [0, 32].
func NewPrefix(a Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic("ipaddr: prefix bits out of range")
	}
	return Prefix{Base: a & mask(bits), Bits: bits}
}

func mask(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// Contains reports whether a is inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(p.Bits) == p.Base
}

// Size returns the number of addresses covered by p.
func (p Prefix) Size() uint64 {
	return 1 << (32 - p.Bits)
}

// Nth returns the i-th address within p. It panics if i is out of range.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.Size() {
		panic("ipaddr: address index out of prefix range")
	}
	return p.Base + Addr(i)
}

// String formats p in CIDR notation.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(p.Bits)
}

// ReverseName returns the in-addr.arpa PTR query name for a, e.g.
// 1.2.3.4 -> "4.3.2.1.in-addr.arpa".
func (a Addr) ReverseName() string {
	o0, o1, o2, o3 := a.Octets()
	var b strings.Builder
	b.Grow(28)
	b.WriteString(strconv.Itoa(int(o3)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(o2)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(o1)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(o0)))
	b.WriteString(".in-addr.arpa")
	return b.String()
}

// FromReverseName parses an in-addr.arpa name back to the address it
// queries, accepting an optional trailing dot.
func FromReverseName(name string) (Addr, error) {
	name = strings.TrimSuffix(name, ".")
	const suffix = ".in-addr.arpa"
	if !strings.HasSuffix(name, suffix) {
		return 0, fmt.Errorf("%w: %q is not under in-addr.arpa", ErrBadAddr, name)
	}
	rev, err := Parse(name[:len(name)-len(suffix)])
	if err != nil {
		return 0, err
	}
	o0, o1, o2, o3 := rev.Octets()
	return FromOctets(o3, o2, o1, o0), nil
}
