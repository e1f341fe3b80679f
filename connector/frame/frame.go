// Package frame splits a streaming HTTP body into frames: capped lines
// (Lines), and text/event-stream events built on them (SSE). It is the one
// framer behind both SSE consumers in this module — the firehose connector
// (package connector) and the client SDK's subscription (package client) —
// factored out, like connector/backoff, so they cannot drift apart on what
// the wire means.
package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

// Event is one text/event-stream event.
type Event struct {
	// ID is the last event id seen up to and including this event ("" when
	// the stream never sent one): per the SSE spec the id field is sticky.
	ID string
	// Type is the event name ("" for unnamed events).
	Type string
	// Data is the payload: the event's data lines joined with '\n'.
	Data []byte
}

// The two conditions SSE.Next reports without losing its place: the reader
// is past the offending event (its blank line resynchronizes the parser)
// and the next call carries on with the one after it.
var (
	// ErrOversized means an event carried a line or an accumulated payload
	// over the byte cap and was skipped.
	ErrOversized = errors.New("frame: event exceeds the size cap")
	// ErrMalformed means an event had no data and a line that is neither a
	// known field nor a comment.
	ErrMalformed = errors.New("frame: malformed event")
)

// Lines reads newline-terminated lines with a hard per-line byte cap.
// Lines over the cap are consumed to their terminator and reported as
// truncated rather than returned partially — consumers skip them instead
// of decoding garbage or buffering without bound.
type Lines struct {
	br  *bufio.Reader
	max int
}

// NewLines reads lines of at most max bytes from r.
func NewLines(r io.Reader, max int) *Lines {
	bufSize := 4096
	if max < bufSize {
		bufSize = max + 1
	}
	return &Lines{br: bufio.NewReaderSize(r, bufSize), max: max}
}

// Next returns one line without its terminator. truncated means the line
// exceeded max bytes; its content is discarded but the stream position is
// past its newline, so reading can continue.
func (lr *Lines) Next() (line []byte, truncated bool, err error) {
	n := 0
	for {
		chunk, err := lr.br.ReadSlice('\n')
		n += len(chunk)
		switch err {
		case nil:
			if n > lr.max+1 { // +1: the terminator itself
				return nil, true, nil
			}
			line = append(line, chunk...)
			// Trim \n and a preceding \r (SSE allows CRLF).
			line = line[:len(line)-1]
			line = bytes.TrimSuffix(line, []byte{'\r'})
			return line, false, nil
		case bufio.ErrBufferFull:
			if n > lr.max {
				// Oversized: drain to the newline, then report truncation.
				for {
					_, derr := lr.br.ReadSlice('\n')
					if derr == nil {
						return nil, true, nil
					}
					if derr != bufio.ErrBufferFull {
						return nil, true, derr
					}
				}
			}
			line = append(line, chunk...)
		default:
			if len(chunk) > 0 || len(line) > 0 {
				// Stream died mid-line: a truncated frame. Surface the
				// error; the partial content is never delivered.
				return nil, true, errTruncated{err}
			}
			return nil, false, err
		}
	}
}

// errTruncated wraps the transport error that cut a line short, so callers
// can distinguish "clean EOF" from "died mid-frame".
type errTruncated struct{ err error }

func (e errTruncated) Error() string { return "frame: stream truncated mid-line: " + e.err.Error() }
func (e errTruncated) Unwrap() error { return e.err }

// SSE parses text/event-stream frames: "field: value" lines accumulated
// until a blank line dispatches the event. Per the SSE spec the id field
// is sticky across events, one optional space after the colon is not part
// of the value, and comment lines (leading ':') are heartbeats and
// ignored. Unknown fields are ignored per spec; an event made only of
// lines that match no field name is ErrMalformed, and one whose data
// exceeds the byte cap is ErrOversized — both skipped in-stream.
type SSE struct {
	lr       *Lines
	maxBytes int

	id        string // sticky last-seen id
	typ       string
	data      [][]byte
	size      int
	oversized bool // current event had an oversized line/payload: skip it
	malformed bool // current event had a malformed line (reported at dispatch)
}

// NewSSE reads events whose payload is at most maxBytes from r.
func NewSSE(r io.Reader, maxBytes int) *SSE {
	return &SSE{lr: NewLines(r, maxBytes), maxBytes: maxBytes}
}

func (sr *SSE) reset() {
	sr.typ = ""
	sr.data = sr.data[:0]
	sr.size = 0
	sr.oversized = false
	sr.malformed = false
}

// Next returns the next complete event. io.EOF means the stream ended
// cleanly; ErrOversized and ErrMalformed report a skipped event and leave
// the reader usable; any other error means the connection died. A partial
// event accumulated when the stream dies is discarded, so a consumer that
// resumes from the last delivered id is sent it again.
func (sr *SSE) Next() (Event, error) {
	for {
		line, truncated, err := sr.lr.Next()
		if err != nil {
			sr.reset()
			return Event{}, err
		}
		if truncated {
			sr.oversized = true
			continue
		}
		if len(line) == 0 {
			// Dispatch boundary.
			var skipped error
			switch {
			case sr.oversized:
				skipped = ErrOversized
			case len(sr.data) == 0 && sr.malformed:
				skipped = ErrMalformed
			case len(sr.data) > 0:
				ev := Event{ID: sr.id, Type: sr.typ, Data: bytes.Join(sr.data, []byte{'\n'})}
				sr.reset()
				return ev, nil
			}
			sr.reset()
			if skipped != nil {
				return Event{}, skipped
			}
			continue
		}
		if line[0] == ':' { // comment / heartbeat
			continue
		}
		field, value := splitField(line)
		switch field {
		case "data":
			sr.size += len(value) + 1
			if sr.size > sr.maxBytes {
				sr.oversized = true
				continue
			}
			sr.data = append(sr.data, append([]byte(nil), value...))
		case "event":
			sr.typ = string(value)
		case "id":
			// Per spec, ids containing NUL are ignored.
			if !bytes.ContainsRune(value, 0) {
				sr.id = string(value)
			}
		case "retry":
			// Server-suggested reconnect delay; the consumer's backoff
			// policy governs.
		default:
			sr.malformed = true
		}
	}
}

// splitField splits "field: value", trimming the single optional space
// after the colon per the SSE spec. A line without a colon is a field with
// an empty value.
func splitField(line []byte) (string, []byte) {
	i := bytes.IndexByte(line, ':')
	if i < 0 {
		return string(line), nil
	}
	value := line[i+1:]
	if len(value) > 0 && value[0] == ' ' {
		value = value[1:]
	}
	return string(line[:i]), value
}
