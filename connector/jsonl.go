package connector

import (
	"io"

	"github.com/social-streams/ksir/connector/frame"
)

// jsonlReader parses newline-delimited JSON: each non-empty line is one
// event's payload. There is no protocol-level event id or type; the
// mapper derives identity from the decoded post. Oversized lines are
// counted and skipped without losing frame sync (the newline resyncs).
type jsonlReader struct {
	lr          *frame.Lines
	onOversized func()
}

func newJSONLReader(r io.Reader, maxBytes int, onOversized func()) *jsonlReader {
	return &jsonlReader{lr: frame.NewLines(r, maxBytes), onOversized: onOversized}
}

func (jr *jsonlReader) Next() (Event, error) {
	for {
		line, truncated, err := jr.lr.Next()
		if err != nil {
			return Event{}, err
		}
		if truncated {
			jr.onOversized()
			continue
		}
		if len(line) == 0 {
			continue
		}
		return Event{Data: append([]byte(nil), line...)}, nil
	}
}
