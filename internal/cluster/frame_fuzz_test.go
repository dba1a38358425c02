package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzFrameReader feeds arbitrary bytes to the net device's frame reader.
// Any stream must come apart into the whole frames it holds, then one
// error that names why the rest is not a frame: never a panic, and never
// a buffer above maxFrame. The seeds are in testdata/fuzz/FuzzFrameReader.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(stream))}
		rest := stream
		for {
			err := fr.fetch()
			if cap(fr.buf) > maxFrame {
				t.Fatalf("frame buffer grew to %d bytes, above maxFrame", cap(fr.buf))
			}
			var want error
			switch {
			case len(rest) == 0:
				want = io.EOF
			case len(rest) < 4:
				want = io.ErrUnexpectedEOF
			case binary.BigEndian.Uint32(rest) > maxFrame:
				want = errFrameTooLarge
			case uint64(len(rest)-4) < uint64(binary.BigEndian.Uint32(rest)):
				want = io.ErrUnexpectedEOF
			}
			if want != nil {
				if !errors.Is(err, want) {
					t.Fatalf("fetch with %d bytes left = %v, want %v", len(rest), err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("fetch of a whole frame: %v", err)
			}
			n := 4 + int(binary.BigEndian.Uint32(rest))
			if !bytes.Equal(fr.buf, rest[4:n]) {
				t.Fatalf("frame body %x, stream holds %x", fr.buf, rest[4:n])
			}
			rest = rest[n:]
		}
	})
}

// TestFrameReaderRejectsOversizedHeader: a 7-byte stream whose header
// declares 4 GiB fails naming the limit, without allocating for the
// declared size.
func TestFrameReaderRejectsOversizedHeader(t *testing.T) {
	fr := &frameReader{r: bufio.NewReader(bytes.NewReader([]byte("\xff\xff\xff\xffgob")))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fr.fetch()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errFrameTooLarge) || !strings.Contains(err.Error(), strconv.Itoa(maxFrame)) {
		t.Errorf("fetch = %v, want a frame-too-large error naming the %d-byte limit", err, maxFrame)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("fetch allocated %d bytes for a rejected header", grew)
	}
}

// FuzzWireDecode feeds arbitrary frame bodies to the body decoder. Each
// body must decode to a message or fail with an undecodable-frame error,
// never panic, and a raw-element payload is never larger than the body
// that declared it. The seeds are in testdata/fuzz/FuzzWireDecode.
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFrame {
			return
		}
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		fr := newFrameReader(bytes.NewReader(append(frame, body...)))
		if err := fr.fetch(); err != nil {
			t.Fatalf("fetch of a whole frame: %v", err)
		}
		m, err := fr.decode()
		if err != nil {
			if !errors.Is(err, errUndecodable) {
				t.Fatalf("decode error %v does not name an undecodable frame", err)
			}
			return
		}
		if v := reflect.ValueOf(m.payload); body[0] != kindGob && v.Kind() == reflect.Slice &&
			v.Len()*int(v.Type().Elem().Size()) > len(body) {
			t.Fatalf("%d-byte body decoded to a %T of %d elements", len(body), m.payload, v.Len())
		}
	})
}

// rawFrame returns one frame with a valid header, the given kind and
// payload bytes, which need not be valid for that kind.
func rawFrame(kind byte, payload string) []byte {
	var w bytes.Buffer
	if _, err := newFrameWriter(&w).writeMsg(&message{tag: 1}); err != nil {
		panic(err)
	}
	frame := append(w.Bytes(), payload...)
	frame[4] = kind
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// TestWireDecodeRejects: a body that is not what its header says fails
// naming why, without allocating for what it declares.
func TestWireDecodeRejects(t *testing.T) {
	var w bytes.Buffer
	if _, err := newFrameWriter(&w).writeMsg(&message{tag: 1, payload: wireProbe{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	probe := w.String()[len(rawFrame(kindNil, "")):] // a gob descriptor and value
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"2^60 float64s", rawFrame(kindFloat64s, "\x80\x80\x80\x80\x80\x80\x80\x80\x10"), "1152921504606846976 elements"},
		{"bytes after a gob payload", rawFrame(kindGob, probe+"x"), "gob payload: 1 bytes left unread"},
		{"bytes after a raw payload", rawFrame(kindFloat64s, "\x01\x00\x00\x00\x00\x00\x00\xf0?xy"), "2 bytes left unread"},
		{"unknown kind", rawFrame(255, ""), "kind 255 payload: unknown kind"},
	} {
		fr := newFrameReader(bytes.NewReader(tc.frame))
		if err := fr.fetch(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := fr.decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errUndecodable) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode = %v, want an undecodable frame naming %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decode allocated %d bytes for a rejected frame", tc.name, grew)
		}
	}
}

// wireProbe is a registered struct payload, so it takes the gob path.
type wireProbe struct {
	ID   int
	Vals []float64
}

func init() { RegisterWire(wireProbe{}, []wireProbe(nil)) }

// TestWireRoundTrip encodes each payload of the raw-element kinds and of
// the gob path (the pre-registered flat types among them), with headers
// that vary every field, and decodes it again through one writer and
// reader pair, as one connection would carry them. Payloads keep their
// dynamic type and every bit, floats included; a length-0 slice arrives
// as the typed nil gob delivers. The sender is not in the header, so src
// is not compared.
func TestWireRoundTrip(t *testing.T) {
	nan64 := math.Float64frombits(0x7ff8_0000_dead_beef)
	snan64 := math.Float64frombits(0x7ff0_0000_0000_0001)
	nan32 := math.Float32frombits(0x7fc0_beef)
	neg0 := math.Copysign(0, -1)
	payloads := []any{
		nil, struct{}{},
		0, -1, math.MinInt64, math.MaxInt64,
		int32(math.MinInt32), int32(math.MaxInt32),
		int64(math.MinInt64), int64(math.MaxInt64),
		uint64(0), uint64(math.MaxUint64),
		float32(neg0), nan32, float32(math.SmallestNonzeroFloat32),
		neg0, nan64, snan64, math.Inf(-1), math.MaxFloat64,
		[]int{math.MinInt64, 0, math.MaxInt64}, []int{}, []int(nil),
		[]int32{math.MinInt32, -1, math.MaxInt32}, []int32{},
		[]int64{math.MinInt64, math.MaxInt64}, []int64(nil),
		[]uint64{0, math.MaxUint64}, []uint64{},
		[]float32{nan32, float32(neg0), float32(math.Inf(1))}, []float32{},
		[]float64{nan64, snan64, neg0, math.Inf(-1), math.SmallestNonzeroFloat64}, []float64{}, []float64(nil),
		[]bool{true, false, true}, []bool{},
		[]byte{0, 1, 255}, []byte{}, []byte(nil),
		wireProbe{ID: 7, Vals: []float64{1.5, -2, 1e300}},
		[]wireProbe{{ID: 1}, {ID: 2, Vals: []float64{3}}},
		[][]float64{{1, 2}, nil, {neg0}},
		[]splitEntry{{Color: 1, Key: -2, Rank: 3, NS: 4}},
		[]string{"a", ""},
	}
	tags := []int{0, 7, collTagBase, collTagBase - 12345, -1099513200643} // world user, collective and group tags
	arrives := []float64{0, neg0, 1e-300, 12345.678901234567, math.MaxFloat64}
	var conn bytes.Buffer
	fw, fr := newFrameWriter(&conn), newFrameReader(&conn)
	for i, p := range payloads {
		in := message{
			tag: tags[i%len(tags)], bytes: 1000 * i, payload: p,
			arrive: arrives[i%len(arrives)],
		}
		if i%2 == 1 {
			in.op, in.site = "Allreduce", "kmeans/dist.go:42"
		}
		n, err := fw.writeMsg(&in)
		if err != nil {
			t.Fatalf("%T %v: writeMsg: %v", p, p, err)
		}
		if err := fr.fetch(); err != nil {
			t.Fatalf("%T %v: fetch: %v", p, p, err)
		}
		if got := int64(4 + len(fr.buf)); got != n {
			t.Errorf("%T %v: writeMsg reported %d wire bytes, the reader got %d", p, p, n, got)
		}
		out, err := fr.decode()
		if err != nil {
			t.Fatalf("%T %v: decode: %v", p, p, err)
		}
		if out.tag != in.tag || out.bytes != in.bytes || out.op != in.op || out.site != in.site ||
			math.Float64bits(out.arrive) != math.Float64bits(in.arrive) {
			t.Errorf("header: sent %+v, got %+v", in, out)
		}
		want := p
		if v := reflect.ValueOf(p); v.Kind() == reflect.Slice && v.Len() == 0 {
			want = reflect.Zero(v.Type()).Interface()
		}
		if reflect.TypeOf(out.payload) != reflect.TypeOf(want) || !reflect.DeepEqual(floatBits(out.payload), floatBits(want)) {
			t.Errorf("payload: sent %T %#v, got %T %#v", p, p, out.payload, out.payload)
		}
	}
}

// floatBits replaces floats with their IEEE bits, so that DeepEqual sees
// NaN payloads and the sign of zero. Other values pass through.
func floatBits(v any) any {
	switch v := v.(type) {
	case float32:
		return math.Float32bits(v)
	case float64:
		return math.Float64bits(v)
	case []float32:
		if v == nil {
			return []uint32(nil)
		}
		b := make([]uint32, len(v))
		for i, x := range v {
			b[i] = math.Float32bits(x)
		}
		return b
	case []float64:
		if v == nil {
			return []uint64(nil)
		}
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		return b
	}
	return v
}
