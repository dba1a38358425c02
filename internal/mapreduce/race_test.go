//go:build race

package mapreduce

// raceEnabled reports whether the race detector is built in. It changes
// allocation counts, so TestRegisterWireTypesAllocs skips under it.
const raceEnabled = true
