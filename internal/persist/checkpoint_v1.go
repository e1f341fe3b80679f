package persist

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/social-streams/ksir/internal/core"
	"github.com/social-streams/ksir/internal/rankedlist"
	"github.com/social-streams/ksir/internal/stream"
)

// Checkpoint format v1 was one gob-encoded file holding every archived
// element alongside the window facts. It is read-only here: a v1 file
// loads, and the next checkpoint replaces it with a v2 head + element log
// (WriteCheckpoint rotates it to .bak, where it keeps loading until the
// checkpoint after that). The types below mirror the field names gob
// recorded; nothing else refers to them.

type checkpointV1 struct {
	Name      string
	ModelHash uint64
	OpSeq     uint64
	LastTime  int64
	Core      struct {
		Window windowStateV1
		Lists  [][]rankedlist.Item
		Stats  core.Stats
	}
	Pending []PostRec
}

// windowStateV1 listed the window queue first (arrival order, WindowLen
// entries) and then the out-of-window archive sorted by ID.
type windowStateV1 struct {
	Now       stream.Time
	WindowLen int
	Elems     []exportedElemV1
}

type exportedElemV1 struct {
	Elem    *stream.Element
	Active  bool
	LastRef stream.Time
}

// decodeCheckpointV1 decodes a v1 payload into today's Checkpoint. The
// arrival order of the out-of-window elements was never recorded, and
// nothing depends on it: rotating the v1 listing — archive first, window
// queue last — yields a log whose suffix is the window, which is all
// stream.Restore asks of it.
func decodeCheckpointV1(payload []byte) (*Checkpoint, error) {
	var v1 checkpointV1
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v1); err != nil {
		return nil, fmt.Errorf("%w: decoding v1 checkpoint: %v", ErrCorrupt, err)
	}
	old := v1.Core.Window
	if old.WindowLen < 0 || old.WindowLen > len(old.Elems) {
		return nil, fmt.Errorf("%w: v1 checkpoint window queue length %d outside [0, %d]", ErrCorrupt, old.WindowLen, len(old.Elems))
	}
	win := stream.WindowState{Now: old.Now, InWindow: old.WindowLen, Log: make([]*stream.Element, 0, len(old.Elems))}
	for _, part := range [][]exportedElemV1{old.Elems[old.WindowLen:], old.Elems[:old.WindowLen]} {
		for _, ex := range part {
			if ex.Elem == nil {
				return nil, fmt.Errorf("%w: v1 checkpoint holds a nil element", ErrCorrupt)
			}
			win.Log = append(win.Log, ex.Elem)
			if ex.Active {
				win.Active = append(win.Active, stream.ActiveRef{ID: ex.Elem.ID, LastRef: ex.LastRef})
			}
		}
	}
	return &Checkpoint{
		Name:      v1.Name,
		ModelHash: v1.ModelHash,
		OpSeq:     v1.OpSeq,
		LastTime:  v1.LastTime,
		Core:      core.State{Window: win, Lists: v1.Core.Lists, Stats: v1.Core.Stats},
		Pending:   v1.Pending,
	}, nil
}
