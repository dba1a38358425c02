//go:build race

package knn

// raceEnabled reports whether the race detector is built in. It changes
// allocation counts, so TestShuffleAllocs skips under it.
const raceEnabled = true
