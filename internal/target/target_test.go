package target

import (
	"strings"
	"testing"
	"time"
)

func TestParseFormatIPv4RoundTrip(t *testing.T) {
	cases := map[string]uint32{
		"0.0.0.0":         0,
		"10.0.0.1":        0x0A000001,
		"192.0.2.1":       0xC0000201,
		"255.255.255.255": 0xFFFFFFFF,
	}
	for s, want := range cases {
		ip, err := ParseIPv4(s)
		if err != nil {
			t.Fatalf("ParseIPv4(%q): %v", s, err)
		}
		if ip != want {
			t.Errorf("ParseIPv4(%q) = %08x, want %08x", s, ip, want)
		}
		if got := FormatIPv4(ip); got != s {
			t.Errorf("FormatIPv4(%08x) = %q, want %q", ip, got, s)
		}
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-4"} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) accepted", bad)
		}
	}
}

func TestParsePorts(t *testing.T) {
	ps, err := ParsePorts("443,80,8000-8002")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{80, 443, 8000, 8001, 8002}
	if ps.Len() != len(want) {
		t.Fatalf("len = %d, want %d", ps.Len(), len(want))
	}
	for i, p := range want {
		if ps.At(i) != p {
			t.Errorf("At(%d) = %d, want %d", i, ps.At(i), p)
		}
	}
	if !ps.Contains(8001) || ps.Contains(8003) {
		t.Error("Contains wrong")
	}
	if s := ps.String(); s != "80,443,8000-8002" {
		t.Errorf("String() = %q", s)
	}
}

func TestParsePortsEdgeCases(t *testing.T) {
	if ps, err := ParsePorts("0"); err != nil || ps.Len() != 1 || ps.At(0) != 0 {
		t.Errorf("port 0: %v %v", ps, err)
	}
	if ps, err := ParsePorts("*"); err != nil || ps.Len() != 65536 {
		t.Errorf("wildcard: len %d err %v", ps.Len(), err)
	}
	if ps, err := ParsePorts("80,80,80"); err != nil || ps.Len() != 1 {
		t.Errorf("dups: %v %v", ps, err)
	}
	for _, bad := range []string{"", "99999", "80-", "-80", "90-80", "80,,443", "http"} {
		if _, err := ParsePorts(bad); err == nil {
			t.Errorf("ParsePorts(%q) accepted", bad)
		}
	}
}

func TestConstraintAllowMinusDeny(t *testing.T) {
	c := NewConstraint(false)
	c.Allow(0x0A000000, 24) // 10.0.0.0/24: 256 addrs
	c.Deny(0x0A000080, 25)  // upper half denied
	if got := c.Count(); got != 128 {
		t.Fatalf("Count = %d, want 128", got)
	}
	if first := c.At(0); first != 0x0A000000 {
		t.Errorf("At(0) = %08x", first)
	}
	if last := c.At(127); last != 0x0A00007F {
		t.Errorf("At(127) = %08x", last)
	}
	excl, frac := c.Excluded()
	if excl != 128 || frac != 0.5 {
		t.Errorf("Excluded = %d, %f", excl, frac)
	}
}

func TestConstraintDenyWinsRegardlessOfOrder(t *testing.T) {
	c := NewConstraint(false)
	c.Deny(0x0A000000, 25) // deny first, allow second
	c.Allow(0x0A000000, 24)
	if got := c.Count(); got != 128 {
		t.Errorf("Count = %d, want 128 (deny must win)", got)
	}
}

func TestConstraintDefaultAllow(t *testing.T) {
	c := NewConstraint(true)
	c.Deny(0, 1) // deny half the Internet
	if got := c.Count(); got != 1<<31 {
		t.Errorf("Count = %d, want 2^31", got)
	}
	if ip := c.At(0); ip != 0x80000000 {
		t.Errorf("At(0) = %08x, want 80000000", ip)
	}
}

func TestConstraintOverlappingAllows(t *testing.T) {
	c := NewConstraint(false)
	c.Allow(0x0A000000, 24)
	c.Allow(0x0A000000, 25) // subset, must not double count
	c.Allow(0x0A000100, 24) // adjacent block
	if got := c.Count(); got != 512 {
		t.Errorf("Count = %d, want 512", got)
	}
	// At covers both blocks contiguously.
	if ip := c.At(256); ip != 0x0A000100 {
		t.Errorf("At(256) = %08x", ip)
	}
}

func TestConstraintAtBijection(t *testing.T) {
	c := NewConstraint(false)
	c.Allow(0x0A000000, 28)
	c.Allow(0x0B000000, 28)
	c.Deny(0x0A000008, 30)
	n := c.Count()
	if n != 16+16-4 {
		t.Fatalf("Count = %d", n)
	}
	seen := map[uint32]bool{}
	for i := uint64(0); i < n; i++ {
		ip := c.At(i)
		if seen[ip] {
			t.Fatalf("At(%d) = %08x repeated", i, ip)
		}
		seen[ip] = true
		if ip >= 0x0A000008 && ip < 0x0A00000C {
			t.Fatalf("At(%d) = %08x is denied", i, ip)
		}
	}
}

func TestConstraintMutateAfterFinalize(t *testing.T) {
	c := NewConstraint(false)
	c.Allow(0x0A000000, 24)
	if c.Count() != 256 {
		t.Fatal("initial count")
	}
	c.Deny(0x0A000000, 25)
	if got := c.Count(); got != 128 {
		t.Errorf("post-mutation Count = %d, want 128", got)
	}
}

func TestConstraintCIDRParsing(t *testing.T) {
	c := NewConstraint(false)
	if err := c.AllowCIDR("10.1.2.3/24"); err != nil {
		t.Fatal(err)
	}
	// Base is masked: 10.1.2.0/24.
	if ip := c.At(0); ip != 0x0A010200 {
		t.Errorf("At(0) = %08x", ip)
	}
	if err := c.AllowCIDR("10.9.9.9"); err != nil { // bare address = /32
		t.Fatal(err)
	}
	if c.Count() != 257 {
		t.Errorf("Count = %d, want 257", c.Count())
	}
	for _, bad := range []string{"10.0.0.0/33", "10.0.0.0/-1", "10.0.0/8", "junk"} {
		if err := c.AllowCIDR(bad); err == nil {
			t.Errorf("AllowCIDR(%q) accepted", bad)
		}
	}
}

func TestLoadBlocklist(t *testing.T) {
	c := NewConstraint(false)
	c.Allow(0x0A000000, 16)
	src := `# comment
10.0.0.0/24          # RFC-whatever annotation
10.0.1.0/24 trailing words ignored

10.0.2.1
`
	n, err := ReadBlocklist(strings.NewReader(src), c.DenyCIDR)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("applied %d entries, want 3", n)
	}
	if got := c.Count(); got != 65536-256-256-1 {
		t.Errorf("Count = %d", got)
	}
	if _, err := ReadBlocklist(strings.NewReader("bogus/99"), c.DenyCIDR); err == nil {
		t.Error("bad blocklist line accepted")
	}
}

func TestOptOutList(t *testing.T) {
	src := `# operator opt-outs
198.51.100.0/24 added=2023-04-01 contact=noc@example.net
203.0.113.7
192.0.2.0/24 added=2010-01-01
`
	entries, err := ParseOptOutList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries", len(entries))
	}
	now := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	if entries[0].Expired(now, DefaultOptOutTTL) {
		t.Error("2023 entry expired under 2y TTL")
	}
	if !entries[2].Expired(now, DefaultOptOutTTL) {
		t.Error("2010 entry not expired")
	}
	if entries[1].Expired(now, DefaultOptOutTTL) {
		t.Error("dateless entry must never expire")
	}
	if entries[1].Bits != 32 || entries[1].Prefix != 0xCB007107 {
		t.Errorf("bare address entry %+v", entries[1])
	}
	if _, err := ParseOptOutList(strings.NewReader("1.2.3.4 added=yesterday")); err == nil {
		t.Error("bad date accepted")
	}
	if _, err := ParseOptOutList(strings.NewReader("not-an-ip")); err == nil {
		t.Error("bad prefix accepted")
	}
}
