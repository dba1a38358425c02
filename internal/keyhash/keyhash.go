// Package keyhash is the key hash both shuffles partition by: the
// MapReduce exchange sends a key to rank keyhash.Of(k) % P, and the rdd
// engine's wide stages send it to partition keyhash.Of(k) % n. Keys
// equal under == hash alike, so a key's values always meet in one
// partition.
package keyhash

import (
	"math"
	"reflect"
)

// Of maps a comparable key to a partition hash, deterministic across
// runs and processes so experiment traffic counts are reproducible. Keys equal under == hash alike: a float or complex key
// hashes its bits with -0 folded to +0, which == equates with it. A NaN
// equals no key, so only its determinism matters, and it hashes its bits
// like any other value. The scalar types of the switch hash without
// reflection; any other key, a struct or array included, is walked by
// hashValue, which applies the same rules to every field and element.
// The switch is on a pointer to k, because boxing k itself would allocate
// for every string key and every int above 255.
func Of[K comparable](k K) uint64 {
	switch v := any(&k).(type) {
	case *int:
		return mix(uint64(*v))
	case *int32:
		return mix(uint64(*v))
	case *int64:
		return mix(uint64(*v))
	case *uint64:
		return mix(*v)
	case *float32:
		return Of(float64(*v))
	case *float64:
		return mix(floatBits(*v))
	case *complex64:
		return Of(complex128(*v))
	case *complex128:
		return mix(mix(floatBits(real(*v))) ^ floatBits(imag(*v)))
	case *string:
		return fnv1a(*v)
	default:
		return hashValue(reflect.ValueOf(any(k)))
	}
}

// hashValue hashes v by what == compares, with Of's scalar rules: a
// struct field by field, blank fields skipped; an array element by
// element; an interface by its dynamic value, nil as the invalid Value. A
// pointer or channel compares by identity, so it hashes its address,
// which is reproducible only within one process.
func hashValue(v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Invalid:
		return 0
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return mix(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return mix(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			return mix(1)
		}
		return mix(0)
	case reflect.Float32, reflect.Float64:
		return mix(floatBits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		return mix(mix(floatBits(real(c))) ^ floatBits(imag(c)))
	case reflect.String:
		return fnv1a(v.String())
	case reflect.Pointer, reflect.Chan, reflect.UnsafePointer:
		return mix(uint64(v.Pointer()))
	case reflect.Interface:
		return hashValue(v.Elem())
	case reflect.Struct:
		h := uint64(v.NumField())
		for i := range v.NumField() {
			if v.Type().Field(i).Name != "_" {
				h = mix(h ^ hashValue(v.Field(i)))
			}
		}
		return h
	case reflect.Array:
		h := uint64(v.Len())
		for i := range v.Len() {
			h = mix(h ^ hashValue(v.Index(i)))
		}
		return h
	}
	// A slice, map or func inside an interface key: == panics on it too.
	panic("keyhash: key holds an unhashable " + v.Type().String())
}

// floatBits returns f's bits, with -0 as +0's, which == equates with it.
func floatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
