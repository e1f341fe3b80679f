package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"github.com/social-streams/ksir/internal/stream"
)

// ElementLog reads frames back from a stream's element log: the store an
// archived element lives in once a checkpoint has written its frame
// (stream.ElementLog). Reads are positioned (pread), so they never move a
// file offset; the stream's writer path is the only reader. Every read
// checks each frame it returns against its CRC and counts itself in
// ksir_element_log_reads_total.
type ElementLog struct {
	r io.ReaderAt
	f *os.File // nil for a log over bytes in memory
}

// OpenElementLog opens the element log in dir for reading.
func OpenElementLog(dir string) (*ElementLog, error) {
	f, err := os.Open(filepath.Join(dir, ElementsFile))
	if err != nil {
		return nil, err
	}
	return &ElementLog{r: f, f: f}, nil
}

// inDir reports whether l reads dir's element log file.
func (l *ElementLog) inDir(dir string) bool {
	if l.f == nil {
		return false
	}
	open, err := l.f.Stat()
	if err != nil {
		return false
	}
	named, err := os.Stat(filepath.Join(dir, ElementsFile))
	return err == nil && os.SameFile(open, named)
}

// Close releases the log's file.
func (l *ElementLog) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}

// ReadFrame returns the payload of the one frame in bytes [start, end) of
// the log (stream.ElementLog).
func (l *ElementLog) ReadFrame(start, end int64) ([]byte, error) {
	buf, err := l.readFrames(start, []int64{end})
	if err != nil {
		return nil, err
	}
	return buf[8:], nil
}

// readFrames reads the frames from start on whose ends are ends, whole,
// after checking that each is one frame of exactly that extent whose
// payload matches its CRC.
func (l *ElementLog) readFrames(start int64, ends []int64) ([]byte, error) {
	buf, err := l.read(start, ends)
	if err != nil {
		obsLogReads.With("error").Inc()
		return nil, err
	}
	obsLogReads.With("ok").Inc()
	return buf, nil
}

func (l *ElementLog) read(start int64, ends []int64) ([]byte, error) {
	if len(ends) == 0 || start < 0 || ends[len(ends)-1] <= start {
		return nil, fmt.Errorf("persist: element log read of frames ending at %v from %d", ends, start)
	}
	buf := make([]byte, ends[len(ends)-1]-start)
	if n, err := l.r.ReadAt(buf, start); n < len(buf) {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: element log ends at %d, inside the frame ending at %d", ErrCorrupt, start+int64(n), ends[len(ends)-1])
		}
		return nil, fmt.Errorf("persist: reading the element log: %w", err)
	}
	at := int64(0)
	for _, end := range ends {
		frame := buf[at : end-start]
		if len(frame) < 8 || int(binary.LittleEndian.Uint32(frame)) != len(frame)-8 {
			return nil, fmt.Errorf("%w: element log holds no frame at [%d, %d)", ErrCorrupt, start+at, end)
		}
		if crc32.Checksum(frame[8:], crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
			return nil, fmt.Errorf("%w: element frame at %d checksum mismatch", ErrCorrupt, start+at)
		}
		at = end - start
	}
	return buf, nil
}

// loadElements checks the durable prefix lp of dir's element log — every
// frame, as LoadCheckpoint promises — and returns the log open for
// reading with what it holds (scanElements). A head naming log bytes the
// directory does not hold is ErrCorrupt.
func loadElements(dir string, lp logPrefix, inWindow uint64) (*ElementLog, scanned, error) {
	log, err := OpenElementLog(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, scanned{}, fmt.Errorf("%w: checkpoint head names %d log bytes but there is no element log", ErrCorrupt, lp.bytes)
		}
		return nil, scanned{}, err
	}
	fi, err := log.f.Stat()
	if err == nil && fi.Size() < lp.bytes {
		err = fmt.Errorf("%w: element log holds %d bytes, the checkpoint head names %d", ErrCorrupt, fi.Size(), lp.bytes)
	}
	var s scanned
	if err == nil {
		s, err = scanElements(io.NewSectionReader(log.f, 0, lp.bytes), lp, inWindow)
	}
	if err != nil {
		log.Close()
		return nil, scanned{}, err
	}
	return log, s, nil
}

// scanned is what an element log prefix holds, as a load keeps it.
type scanned struct {
	// ends[i] is where frame i ends.
	ends []int64
	// ids are the archived elements' IDs, in arrival order.
	ids []stream.ElemID
	// maxTS is the latest of the archived elements' timestamps.
	maxTS stream.Time
	// window is the window queue, decoded.
	window []*stream.Element
}

// scanElements reads exactly lp.count element frames that together fill
// the lp.bytes bytes r holds, of which the last inWindow are the window
// queue. Unlike a WAL tail, nothing here may be torn: the prefix was
// fsynced before the head naming it was written, so any short, oversized
// or CRC-failing frame is ErrCorrupt.
//
// The frames stream through one small buffer. Of an archived frame only
// its end, its element's ID and the latest timestamp are kept: the archive reads it back from
// the log when the restore decodes it (an archived element still active)
// or a reference resurrects it. Only the window queue is decoded into elements (stream.DecodeRecords),
// its records copied into one allocation and its texts into one string,
// so a cold touch of a long-lived stream costs the window and the active
// set, not the history. Every size comes from bytes already checked, so a
// count never allocates beyond what the bytes that remain could encode.
func scanElements(r io.Reader, lp logPrefix, inWindow uint64) (scanned, error) {
	if lp.bytes < 0 || lp.count > uint64(lp.bytes/elemFrameMin) || inWindow > lp.count {
		return scanned{}, fmt.Errorf("%w: element log of %d bytes cannot hold %d elements", ErrCorrupt, lp.bytes, lp.count)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	archived := int(lp.count - inWindow)
	s := scanned{ends: make([]int64, 0, lp.count), ids: make([]stream.ElemID, 0, archived)}
	var (
		hdr       [8]byte
		payload   []byte
		recs      []byte
		texts     []byte
		recEnds   = make([]int, 0, inWindow)
		textEnds  = make([]int, 0, inWindow)
		at        int64
		remaining = lp.bytes
	)
	for i := 0; i < int(lp.count); i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return scanned{}, fmt.Errorf("%w: element log ends inside frame %d", ErrCorrupt, i)
		}
		remaining -= 8
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxRecordSize || n > remaining {
			return scanned{}, fmt.Errorf("%w: element frame %d claims %d bytes, %d remain", ErrCorrupt, i, n, remaining)
		}
		payload = slices.Grow(payload[:0], int(n))[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return scanned{}, fmt.Errorf("%w: element log ends inside frame %d", ErrCorrupt, i)
		}
		remaining -= n
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
			return scanned{}, fmt.Errorf("%w: element frame %d checksum mismatch", ErrCorrupt, i)
		}
		rec, ok := stream.RecordLen(payload)
		if !ok {
			return scanned{}, fmt.Errorf("%w: element frame %d of %d bytes is too short for its counts", ErrCorrupt, i, n)
		}
		at += 8 + n
		s.ends = append(s.ends, at)
		if i < archived {
			s.ids = append(s.ids, stream.ElemID(binary.LittleEndian.Uint64(payload)))
			if ts := stream.Time(binary.LittleEndian.Uint64(payload[8:])); i == 0 || ts > s.maxTS {
				s.maxTS = ts
			}
			continue
		}
		recs = append(recs, payload[:rec]...)
		texts = append(texts, payload[rec:]...)
		recEnds, textEnds = append(recEnds, len(recs)), append(textEnds, len(texts))
	}
	if remaining != 0 {
		return scanned{}, fmt.Errorf("%w: %d stray bytes after %d element frames", ErrCorrupt, remaining, lp.count)
	}

	winRecs := make([][]byte, inWindow)
	winTexts := make([]string, inWindow)
	text := string(texts)
	prevRec, prevText := 0, 0
	for j := range winRecs {
		winRecs[j], winTexts[j] = recs[prevRec:recEnds[j]], text[prevText:textEnds[j]]
		prevRec, prevText = recEnds[j], textEnds[j]
	}
	window, err := stream.DecodeRecords(winRecs, winTexts)
	if err != nil {
		return scanned{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.window = window
	return s, nil
}
