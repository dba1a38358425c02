package cluster

import (
	"strings"
	"testing"
)

type deepClone struct {
	Name string
	Vals []float64
	Tags map[string]int
}

func (d deepClone) CloneWire() any {
	c := deepClone{
		Name: d.Name,
		Vals: append([]float64(nil), d.Vals...),
		Tags: make(map[string]int, len(d.Tags)),
	}
	for k, v := range d.Tags {
		c.Tags[k] = v
	}
	return c
}

type shallowClone struct {
	Vals []float64
}

//peachyvet:allow wiresafe — this shallow CloneWire is the negative test input.
func (s shallowClone) CloneWire() any { return shallowClone{Vals: s.Vals} }

type selfClone struct {
	Vals []float64
}

//peachyvet:allow wiresafe — returning the receiver is the negative test input.
func (s *selfClone) CloneWire() any { return s }

type nestedShallow struct {
	Inner *shallowClone
}

func (n nestedShallow) CloneWire() any {
	inner := shallowClone{Vals: append([]float64(nil), n.Inner.Vals...)}
	return nestedShallow{Inner: &inner}
}

func TestVerifyClonerAcceptsDeepCopy(t *testing.T) {
	d := deepClone{Name: "d", Vals: []float64{1, 2}, Tags: map[string]int{"a": 1}}
	if err := VerifyCloner(d); err != nil {
		t.Errorf("deep clone rejected: %v", err)
	}
	if err := VerifyCloner(nestedShallow{Inner: &shallowClone{Vals: []float64{3}}}); err != nil {
		t.Errorf("deep nested clone rejected: %v", err)
	}
}

func TestVerifyClonerRejectsSharedMemory(t *testing.T) {
	err := VerifyCloner(shallowClone{Vals: []float64{1, 2}})
	if err == nil {
		t.Fatal("shallow slice clone accepted")
	}
	if !strings.Contains(err.Error(), "Vals") {
		t.Errorf("error does not name the aliasing path: %v", err)
	}
	if err := VerifyCloner(&selfClone{Vals: []float64{1}}); err == nil {
		t.Fatal("receiver-returning clone accepted")
	}
}

// The round-trip must also catch mutation visibility directly: writing
// the clone must not change the original. This is the property the
// collectives' snapshot path depends on.
func TestVerifyClonerMutationIndependence(t *testing.T) {
	d := deepClone{Vals: []float64{1, 2}, Tags: map[string]int{"a": 1}}
	c := d.CloneWire().(deepClone)
	c.Vals[0] = 99
	c.Tags["a"] = 99
	if d.Vals[0] == 99 || d.Tags["a"] == 99 {
		t.Fatal("clone mutation visible through the original")
	}
}
