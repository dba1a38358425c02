//go:build race

package cluster

// raceEnabled reports whether the race detector is built in. It changes
// allocation counts, so TestCollectiveAllocs skips under it.
const raceEnabled = true
