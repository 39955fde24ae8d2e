// Package validate implements ZMap's stateless response validation.
//
// ZMap keeps no per-probe state, so it must decide whether an inbound
// packet is a genuine response to a probe it sent — rather than backscatter
// or an attacker guessing — using only the packet itself. It does so by
// deriving every mutable field of a probe from one keyed block over the
// flow tuple. A response echoes these fields (a SYN-ACK acknowledges
// seq+1 to the probe's source port), so the receiver recomputes the block
// and compares.
//
// Like the C implementation, the block is AES-128 under a per-scan key:
// one encryption of (srcIP, dstIP, dstPort, zero padding) yields the
// 128-bit Word whose slices are the probe's fields:
//
//	bits 127..96  TCP sequence number
//	bits  95..64  acknowledgment number of a SYN-ACK probe
//	bits  63..48  source-port offset into the configured range
//	bits  47..32  IP identification (when randomized)
//	bits  31..16  ICMP echo identifier
//	bits  15..0   ICMP echo sequence number
//
// The fields are disjoint, so a response that proves one of them says
// nothing about another. IPv6 flows do not fit one block; Word6 chains
// three through the same cipher as a fixed-length CBC-MAC.
package validate

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"sync"
)

// KeySize is the size of the per-scan validation key in bytes (AES-128).
const KeySize = 16

// ComputeCounter counts validation-word computations; satisfied by
// *metrics.Counter. A local interface keeps this package dependency-free.
type ComputeCounter interface {
	Add(n uint64)
}

// Word is the validation word of one flow: one AES block, sliced into
// probe fields by its methods (layout in the package comment).
type Word struct{ hi, lo uint64 }

// Seq is the TCP sequence number of the flow's probe. A valid SYN-ACK
// acknowledges Seq+1; a valid RST acknowledges Seq or Seq+1.
func (w Word) Seq() uint32 { return uint32(w.hi >> 32) }

// Ack is the acknowledgment number a SYN-ACK probe carries; a compliant
// host's RST echoes it as its sequence number.
func (w Word) Ack() uint32 { return uint32(w.hi) }

// AckValid reports whether ack is a plausible acknowledgment of the
// flow's probe: Seq+1 for SYN-ACKs, and Seq or Seq+1 for RSTs (stacks
// differ).
func (w Word) AckValid(ack uint32, isRST bool) bool {
	return ack == w.Seq()+1 || (isRST && ack == w.Seq())
}

// SourcePort returns the probe's TCP/UDP source port, drawn from the
// configured range [base, base+count) keyed by the flow so that retries
// reuse the same port but distinct targets spread load. This mirrors
// ZMap's --source-port range behavior.
func (w Word) SourcePort(base, count uint16) uint16 {
	if count <= 1 {
		return base
	}
	return base + uint16(w.lo>>48)%count
}

// IPID is the probe's pseudorandom IP identification.
func (w Word) IPID() uint16 { return uint16(w.lo >> 32) }

// ICMPIDSeq returns the (id, seq) pair of an ICMP echo probe.
func (w Word) ICMPIDSeq() (id, seq uint16) { return uint16(w.lo >> 16), uint16(w.lo) }

// Validator computes per-flow validation words for one scan.
//
// Word sits on both hot paths — once per rendered probe and once per
// classified response — so it must not allocate. The stdlib cipher is
// reached through an interface, which makes its argument escape; the
// block therefore lives in a pooled scratch rather than on the caller's
// stack. The pool also makes the Validator safe for concurrent use by
// sender threads and receive workers.
type Validator struct {
	*keyed
	computes ComputeCounter
}

// keyed is what every view of one validator shares (see Uncounted).
type keyed struct {
	key     [KeySize]byte
	block   cipher.Block
	scratch sync.Pool // *[aes.BlockSize]byte
}

// New creates a Validator with the given per-scan key.
func New(key [KeySize]byte) *Validator {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// Only a wrong key length fails, and the array type fixes it.
		panic("validate: " + err.Error())
	}
	return &Validator{keyed: &keyed{key: key, block: block}}
}

// Uncounted returns a view of v that computes the same words through the
// same cipher and scratch pool but counts none of them, for a caller
// that books its words itself in bulk. A counter attached to v, before or
// after, does not reach the view.
func (v *Validator) Uncounted() *Validator { return &Validator{keyed: v.keyed} }

// NewRandom creates a Validator with a fresh random key.
func NewRandom() (*Validator, error) {
	var key [KeySize]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, err
	}
	return New(key), nil
}

// Key returns the validator's key (for scan metadata / resumption).
func (v *Validator) Key() [KeySize]byte { return v.key }

// Instrument attaches a counter incremented once per validation word,
// which is once per rendered or built probe and once per classified
// response, so it tracks validator load on both hot paths. Call before
// the scan starts; a nil counter disables counting.
func (v *Validator) Instrument(c ComputeCounter) { v.computes = c }

// begin counts one computation and fetches a scratch block.
func (v *Validator) begin() *[aes.BlockSize]byte {
	if v.computes != nil {
		v.computes.Add(1)
	}
	if b, ok := v.scratch.Get().(*[aes.BlockSize]byte); ok {
		return b
	}
	return new([aes.BlockSize]byte)
}

// finish encrypts the scratch in place, slices it into a Word and
// returns the scratch to the pool.
func (v *Validator) finish(b *[aes.BlockSize]byte) Word {
	v.block.Encrypt(b[:], b[:])
	w := Word{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	v.scratch.Put(b)
	return w
}

// Word returns the validation word for a flow. The same tuple always
// produces the same word within a scan, so validation needs no lookup
// table. srcIP/dstIP are the PROBE's source and destination; when
// validating a response the caller swaps them back.
func (v *Validator) Word(srcIP, dstIP uint32, dstPort uint16) Word {
	b := v.begin()
	binary.BigEndian.PutUint32(b[0:4], srcIP)
	binary.BigEndian.PutUint32(b[4:8], dstIP)
	binary.BigEndian.PutUint16(b[8:10], dstPort)
	clear(b[10:])
	return v.finish(b)
}

// Compute returns the leading 64 bits (sequence and acknowledgment) of
// the flow's Word, for callers that want an opaque per-flow tag.
func (v *Validator) Compute(srcIP, dstIP uint32, dstPort uint16) uint64 {
	return v.Word(srcIP, dstIP, dstPort).hi
}

// Word6 is the IPv6 analogue of Word: a CBC-MAC over the three blocks
// source address, destination address and zero-padded destination port.
// Every message is exactly three blocks, the case in which CBC-MAC is a
// secure MAC.
func (v *Validator) Word6(src, dst [16]byte, dstPort uint16) Word {
	b := v.begin()
	copy(b[:], src[:])
	v.block.Encrypt(b[:], b[:])
	for i, x := range dst {
		b[i] ^= x
	}
	v.block.Encrypt(b[:], b[:])
	b[0] ^= byte(dstPort >> 8)
	b[1] ^= byte(dstPort)
	return v.finish(b)
}

// Compute6 is the IPv6 analogue of Compute.
func (v *Validator) Compute6(src, dst [16]byte, dstPort uint16) uint64 {
	return v.Word6(src, dst, dstPort).hi
}
