package connector

import (
	"errors"
	"io"

	"github.com/social-streams/ksir/connector/frame"
)

// frameReader yields complete upstream events from one connection's body.
// Next returns io.EOF when the stream ends cleanly; any other error means
// the connection died (the caller reconnects and resumes). A partial event
// accumulated when the stream dies is discarded without advancing the
// resume cursor, so the upstream re-delivers it after reconnect.
type frameReader interface {
	Next() (Event, error)
}

// sseReader reads text/event-stream events (frame.SSE). Events over the
// byte cap are counted oversized, events made of no known field malformed,
// and both are skipped in-stream — no reconnect, the frame boundary (blank
// line) resynchronizes the parser.
type sseReader struct {
	fr          *frame.SSE
	onOversized func()
	onMalformed func()
}

func newSSEReader(r io.Reader, maxBytes int, onOversized, onMalformed func()) *sseReader {
	return &sseReader{fr: frame.NewSSE(r, maxBytes), onOversized: onOversized, onMalformed: onMalformed}
}

func (sr *sseReader) Next() (Event, error) {
	for {
		ev, err := sr.fr.Next()
		switch {
		case errors.Is(err, frame.ErrOversized):
			sr.onOversized()
		case errors.Is(err, frame.ErrMalformed):
			sr.onMalformed()
		default:
			return Event(ev), err
		}
	}
}
