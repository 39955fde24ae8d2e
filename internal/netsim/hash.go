package netsim

import "zmapgo/internal/hashx"

// purpose constants salt the hash so distinct attributes of the same host
// are independent.
const (
	purposeLive = iota + 1
	purposeService
	purposeOptions
	purposeMiddlebox
	purposeBlowback
	purposeRST
	purposeICMP
	purposeProtocol
	purposeLatency
	purposeLoss
	purposeBanner
	purposeUDP
)

// hash derives one per-host attribute. The whole simulated Internet is a
// pure function of (seed, ip, port, purpose), so a population of 2^32
// hosts costs no memory and two runs with the same seed are identical.
func (in *Internet) hash(purpose uint64, ip uint32, port uint16) uint64 {
	return hashx.SplitMix64(in.cfg.Seed ^ purpose<<56 ^ uint64(ip)<<16 ^ uint64(port))
}

// uniform converts a hash to [0, 1).
func uniform(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
