//go:build race

package netsim

// raceEnabled reports whether the race detector is active. It randomly
// drops sync.Pool items (the link's pooled parse scratch among them) to
// expose lifetime bugs, so allocation counts are meaningless under -race.
const raceEnabled = true
