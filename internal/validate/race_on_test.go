//go:build race

package validate

// raceEnabled reports whether the race detector is active. The detector
// randomly drops sync.Pool items to expose lifetime bugs, so pooled-scratch
// allocation counts are meaningless under -race.
const raceEnabled = true
