package mapreduce

import (
	"encoding/gob"
	"io"
	"testing"

	"repro/internal/keyhash"
)

// wireTestKey is a key type no other test registers.
type wireTestKey struct{ A int }

// TestRegisterWireTypesAllocs: the first RegisterWireTypes call for an
// instantiation registers its three payload types with the wire codec,
// and a repeat call, which every Job.Run on every rank makes, allocates
// nothing. The race detector changes allocation counts, so that half
// skips under it; check.sh runs it in a step of its own.
func TestRegisterWireTypesAllocs(t *testing.T) {
	RegisterWireTypes[wireTestKey, float32, string]()
	for _, v := range []any{batch[wireTestKey, float32]{}, map[wireTestKey]string(nil), []map[wireTestKey]string(nil)} {
		if err := gob.NewEncoder(io.Discard).Encode(&v); err != nil {
			t.Errorf("%T after the first call: %v", v, err)
		}
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if n := testing.AllocsPerRun(100, RegisterWireTypes[wireTestKey, float32, string]); n != 0 {
		t.Errorf("a repeat call allocates %v times, want 0", n)
	}
}

// TestHashKeyAllocs: routing a scalar key allocates nothing, so keyhash.Of
// must not box the key, which would allocate for every string key and
// every int above 255.
func TestHashKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	word, sink := "lorem", uint64(0)
	for _, tc := range []struct {
		name string
		hash func()
	}{
		{"int", func() { sink += keyhash.Of(1000) }},
		{"string", func() { sink += keyhash.Of(word) }},
		{"float64", func() { sink += keyhash.Of(2.5) }},
	} {
		if n := testing.AllocsPerRun(100, tc.hash); n != 0 {
			t.Errorf("keyhash.Of of a %s key allocates %v times, want 0", tc.name, n)
		}
	}
}
