package cluster

import (
	"fmt"
	"reflect"
)

// VerifyCloner checks a Cloner implementation against its contract: the
// clone must be the same concrete type, equal in value, and share no
// mutable memory with the original. It returns nil on conformance and a
// descriptive error naming the first aliasing path otherwise.
//
// It is a test-time helper (reflection-based, allocation-happy): call it
// from the payload type's own tests so a shallow CloneWire fails there,
// long before the collectives' snapshot path silently corrupts a
// reduction. The static analyzer's wiresafe rule catches the common
// shallow shapes at vet time; this check is the dynamic ground truth.
func VerifyCloner(v Cloner) error {
	clone := v.CloneWire()
	ot, ct := reflect.TypeOf(v), reflect.TypeOf(clone)
	if ot != ct {
		return fmt.Errorf("CloneWire returned %v, want the receiver type %v", ct, ot)
	}
	ov, cv := reflect.ValueOf(v), reflect.ValueOf(clone)
	if !reflect.DeepEqual(v, clone) {
		return fmt.Errorf("CloneWire returned an unequal value: %+v != %+v", clone, v)
	}
	if path, shared := sharedMemory(ov, cv, "value"); shared {
		return fmt.Errorf("CloneWire returned a shallow copy: %s shares memory with the original", path)
	}
	return nil
}

// sharedMemory walks original and clone in lockstep and reports the first
// path where both sides point at the same mutable memory: a slice over
// the same backing array, the same map, or the same pointee.
func sharedMemory(a, b reflect.Value, path string) (string, bool) {
	if !a.IsValid() || !b.IsValid() || a.Kind() != b.Kind() {
		return "", false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return "", false
		}
		if a.Pointer() == b.Pointer() {
			return path, true
		}
		return sharedMemory(a.Elem(), b.Elem(), "(*"+path+")")
	case reflect.Slice:
		if a.Len() > 0 && b.Len() > 0 && a.Pointer() == b.Pointer() {
			return path, true
		}
		n := min(a.Len(), b.Len())
		for i := 0; i < n; i++ {
			if p, shared := sharedMemory(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); shared {
				return p, true
			}
		}
	case reflect.Map:
		if !a.IsNil() && !b.IsNil() && a.Pointer() == b.Pointer() {
			return path, true
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if p, shared := sharedMemory(iter.Value(), bv, fmt.Sprintf("%s[%v]", path, iter.Key())); shared {
				return p, true
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if !f.IsExported() {
				continue // unexported fields are unreadable via reflection
			}
			if p, shared := sharedMemory(a.Field(i), b.Field(i), path+"."+f.Name); shared {
				return p, true
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if p, shared := sharedMemory(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); shared {
				return p, true
			}
		}
	case reflect.Interface:
		if !a.IsNil() && !b.IsNil() {
			return sharedMemory(a.Elem(), b.Elem(), path)
		}
	}
	return "", false
}
