package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
