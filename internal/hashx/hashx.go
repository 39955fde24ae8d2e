// Package hashx holds the repo's one 64-bit hash mixer. Everything that
// needs a stateless, well-distributed function of an integer — dedup
// sharding and probing, trace sampling, the simulator's per-host
// attributes, the seeded fault schedules — calls one of these two forms,
// so a seeded suite sees the same bits wherever the hash is taken.
package hashx

// Mix64 is the SplitMix64 finalizer: a full-avalanche bijection on
// uint64, so adjacent inputs (scans walk dense address ranges) spread
// uniformly. Mix64(0) == 0.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SplitMix64 is one step of the SplitMix64 generator: the golden-ratio
// increment followed by the finalizer. Iterating it over a seed yields a
// deterministic derived stream; applying it once hashes a salted seed.
func SplitMix64(x uint64) uint64 {
	return Mix64(x + 0x9e3779b97f4a7c15)
}
