// Package target models the address space a scan covers: IPv4 parsing
// and formatting, ZMap-syntax port sets, the allowlist/blocklist
// constraint over IPv4 (DESIGN.md §4 "Target space"), and operator
// opt-out lists with expiry (§6 exclusion-request practice).
//
// The constraint is built from CIDR allow/deny rules and flattened into
// sorted disjoint intervals with cumulative counts, so the engine can
// both count eligible addresses and map a permutation index to the
// idx-th eligible address in O(log n).
package target

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseIPv4 parses a dotted-quad IPv4 address into host byte order.
func ParseIPv4(s string) (uint32, error) {
	var ip uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("target: bad IPv4 address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("target: bad IPv4 address %q", s)
		}
		ip = ip<<8 | uint32(v)
	}
	return ip, nil
}

// FormatIPv4 renders a host-byte-order IPv4 address as a dotted quad.
func FormatIPv4(ip uint32) string {
	var b [15]byte
	return string(AppendIPv4(b[:0], ip))
}

// AppendIPv4 appends the dotted quad of a host-byte-order IPv4 address.
func AppendIPv4(dst []byte, ip uint32) []byte {
	dst = append(strconv.AppendUint(dst, uint64(ip>>24), 10), '.')
	dst = append(strconv.AppendUint(dst, uint64(ip>>16&0xFF), 10), '.')
	dst = append(strconv.AppendUint(dst, uint64(ip>>8&0xFF), 10), '.')
	return strconv.AppendUint(dst, uint64(ip&0xFF), 10)
}

// parseCIDR parses "a.b.c.d/len" (or a bare address, treated as /32)
// into a masked base address and prefix length.
func parseCIDR(s string) (base uint32, bits int, err error) {
	s = strings.TrimSpace(s)
	addr, lenStr, found := strings.Cut(s, "/")
	bits = 32
	if found {
		v, err := strconv.Atoi(lenStr)
		if err != nil || v < 0 || v > 32 {
			return 0, 0, fmt.Errorf("target: bad prefix length in %q", s)
		}
		bits = v
	}
	base, err = ParseIPv4(addr)
	if err != nil {
		return 0, 0, err
	}
	return base & prefixMask(bits), bits, nil
}

func prefixMask(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}
