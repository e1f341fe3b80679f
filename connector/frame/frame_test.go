package frame

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// The cap counts a line's content: a line of exactly max bytes passes
// whether it ends in LF or CRLF, and one byte more is truncated either
// way. Caps below 4096 size the read buffer to the cap; caps above it read
// a line in several buffer-sized chunks, and 8191 puts the CR of a
// max-byte line at the last byte of a full buffer.
func TestLinesCap(t *testing.T) {
	for _, max := range []int{1, 15, 16, 100, 4095, 4096, 5000, 8191} {
		for _, term := range []string{"\n", "\r\n"} {
			for _, tc := range []struct {
				n         int
				truncated bool
			}{
				{max - 1, false},
				{max, false},
				{max + 1, true},
				{2 * max, true},
			} {
				line := strings.Repeat("x", tc.n)
				lr := NewLines(strings.NewReader(line+term+"z"+term), max)
				got, truncated, err := lr.Next()
				if err != nil || truncated != tc.truncated {
					t.Fatalf("max %d, %d bytes + %q: truncated=%v err=%v, want truncated=%v", max, tc.n, term, truncated, err, tc.truncated)
				}
				if !truncated && string(got) != line {
					t.Fatalf("max %d, %d bytes + %q: got %d bytes", max, tc.n, term, len(got))
				}
				// The reader is past the line either way.
				if got, truncated, err := lr.Next(); err != nil || truncated || string(got) != "z" {
					t.Fatalf("max %d, %d bytes + %q: next line = %q, %v, %v", max, tc.n, term, got, truncated, err)
				}
			}
		}
	}
}

// FuzzSSE: the parser never panics, reports only its documented errors,
// never hands out a payload over the cap, and reads CRLF framing exactly
// as it reads LF framing.
func FuzzSSE(f *testing.F) {
	f.Add([]byte("id: 1\nevent: post\ndata: {\"id\":1}\n\n"), uint16(64))
	f.Add([]byte(": heartbeat\n\ndata: a\ndata: b\n\nbogus\n\n"), uint16(16))
	f.Add([]byte("data: "+strings.Repeat("x", 20)+"\n\ndata: ok\n\n"), uint16(16))
	f.Add([]byte("data: "+strings.Repeat("y", 5000)+"\n\ndata: ok\n\n"), uint16(5000))
	f.Add([]byte("data: partial"), uint16(32))
	f.Fuzz(func(t *testing.T, raw []byte, capBytes uint16) {
		maxBytes := int(capBytes)%6000 + 1
		readAll(t, raw, maxBytes)
		lf := bytes.ReplaceAll(raw, []byte("\r"), nil)
		crlf := bytes.ReplaceAll(lf, []byte("\n"), []byte("\r\n"))
		a, b := readAll(t, lf, maxBytes), readAll(t, crlf, maxBytes)
		if len(a) != len(b) {
			t.Fatalf("LF read %d steps, CRLF %d", len(a), len(b))
		}
		for i := range a {
			if a[i].err != b[i].err || a[i].ev.ID != b[i].ev.ID || a[i].ev.Type != b[i].ev.Type || !bytes.Equal(a[i].ev.Data, b[i].ev.Data) {
				t.Fatalf("step %d: LF %s, CRLF %s", i, a[i], b[i])
			}
		}
	})
}

// step is one SSE.Next outcome, its error reduced to its class.
type step struct {
	ev  Event
	err string
}

func (s step) String() string {
	return fmt.Sprintf("{id %q type %q data %d bytes %.32q err %q}", s.ev.ID, s.ev.Type, len(s.ev.Data), s.ev.Data, s.err)
}

// readAll drains an SSE stream over raw, checking every outcome.
func readAll(t *testing.T, raw []byte, maxBytes int) []step {
	t.Helper()
	sr := NewSSE(bytes.NewReader(raw), maxBytes)
	var steps []step
	// Every call consumes at least one line, or ends the stream.
	for range bytes.Count(raw, []byte("\n")) + 2 {
		ev, err := sr.Next()
		var trunc errTruncated
		switch {
		case err == nil:
			if len(ev.Data) > maxBytes {
				t.Fatalf("event data %d bytes over the %d-byte cap", len(ev.Data), maxBytes)
			}
			steps = append(steps, step{ev: ev})
		case errors.Is(err, ErrOversized), errors.Is(err, ErrMalformed):
			steps = append(steps, step{err: err.Error()})
		case errors.As(err, &trunc), err == io.EOF:
			return append(steps, step{err: err.Error()})
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	t.Fatalf("no end of stream after %d calls", len(steps))
	return nil
}
