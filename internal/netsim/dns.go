package netsim

import (
	"strings"

	"zmapgo/internal/dnswire"
	"zmapgo/internal/hashx"
)

// dnsAnswer implements the simulated recursive resolvers behind UDP/53
// services. The zone contents are, like everything else here, a pure
// function of the population seed and the query name:
//
//   - ~85% of names "exist": an A query returns one or two deterministic
//     addresses, a TXT query returns a deterministic record;
//   - the rest return NXDOMAIN;
//   - ~3% of resolvers are REFUSED-only (closed resolvers reached by a
//     scan), and malformed queries earn FORMERR.
//
// The return value is the raw DNS message, or nil when the payload is
// not DNS (the generic UDP reply is used instead).
func (in *Internet) dnsAnswer(server uint32, payload []byte) []byte {
	q, err := dnswire.ParseQuery(payload)
	if err != nil {
		if len(payload) >= dnswire.HeaderLen {
			// DNS-shaped but malformed: FORMERR, as real servers do.
			resp, err := dnswire.AppendResponse(nil, dnswire.Query{ID: bigEndianID(payload)}, dnswire.RCodeFormErr, nil)
			if err != nil {
				return nil
			}
			return resp
		}
		return nil
	}
	if uniform(in.hash(purposeUDP+16, server, 53)) < 0.03 {
		resp, _ := dnswire.AppendResponse(nil, q, dnswire.RCodeRefused, nil)
		return resp
	}
	name := strings.ToLower(q.Name)
	nameHash := hashx.SplitMix64(in.cfg.Seed ^ 0xD15 ^ hashString(name))
	if uniform(nameHash) >= 0.85 {
		resp, _ := dnswire.AppendResponse(nil, q, dnswire.RCodeNXDomain, nil)
		return resp
	}
	var answers []dnswire.Answer
	switch q.Type {
	case dnswire.TypeA:
		addr := addrFor(nameHash)
		answers = append(answers, dnswire.Answer{
			Name: q.Name, Type: dnswire.TypeA, TTL: 300, A: addr,
		})
		if nameHash&1 == 1 { // some names have two records
			answers = append(answers, dnswire.Answer{
				Name: q.Name, Type: dnswire.TypeA, TTL: 300, A: addrFor(hashx.SplitMix64(nameHash)),
			})
		}
	case dnswire.TypeTXT:
		answers = append(answers, dnswire.Answer{
			Name: q.Name, Type: dnswire.TypeTXT, TTL: 300,
			Text: "v=sim1 id=" + name,
		})
	default:
		// Existing name, unsupported type: NOERROR with no answers.
	}
	resp, err := dnswire.AppendResponse(nil, q, dnswire.RCodeNoError, answers)
	if err != nil {
		return nil
	}
	return resp
}

func addrFor(h uint64) [4]byte {
	return [4]byte{byte(h>>24)%223 + 1, byte(h >> 16), byte(h >> 8), byte(h)}
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func bigEndianID(p []byte) uint16 {
	return uint16(p[0])<<8 | uint16(p[1])
}
