package ksir

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/social-streams/ksir/internal/residency"
)

// Hub is a named, multi-tenant registry of streams — the deployment §2
// motivates ("thousands of users submit different queries at the same
// time") widened to many tenants: each scenario (a city's feed, one
// conference's papers, a product's mentions) gets its own named stream
// with its own window, model and standing queries.
//
// Each registered stream is a Stream like one from New (see Stream). A
// Hub opened with OpenHub is additionally durable: stream state is
// write-ahead logged and checkpointed under a data directory, and
// recovered on the next OpenHub (see persistence.go).
//
// Lifecycle: every registered stream owns a writer goroutine, released by
// Close/CloseAll or the stream's own Close, and a durable hub with a
// residency budget runs one background sweeper until CloseAll. Nothing else runs, at any fsync
// policy: the writer also owns its stream's WAL and runs the FsyncInterval
// idle sync itself while it waits for work. A hub that is dropped without
// being closed leaks those goroutines (and the streams they pin) — close
// hubs you abandon, in-memory ones included.
//
// All Hub methods are safe for concurrent use.
type Hub struct {
	mu      sync.RWMutex
	streams map[string]*Stream
	// p is the durability configuration (nil for an in-memory hub).
	p *hubPersist

	// stopSweeper ends the hub's one background goroutine and waits for it
	// to exit; nil on a hub that runs none (see startSweeper).
	stopSweeper func()
}

// NewHub creates an empty registry. Call CloseAll when done with it:
// each stream's writer goroutine runs until its stream is closed.
func NewHub() *Hub {
	return &Hub{streams: make(map[string]*Stream)}
}

// validName rejects names that cannot round-trip through a URL path
// segment or an index listing.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty stream name", ErrBadOptions)
	}
	if len(name) > 128 {
		return fmt.Errorf("%w: stream name longer than 128 bytes", ErrBadOptions)
	}
	if strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("%w: stream name %q contains '/' or a space", ErrBadOptions, name)
	}
	// Control characters (CR/LF/TAB/...) would survive into protocol
	// lines — SSE comments, logs, listings — as raw line breaks.
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("%w: stream name contains control character %q", ErrBadOptions, r)
		}
	}
	// "." and ".." survive url.PathEscape but are path-cleaned away by
	// HTTP routers, leaving the stream unreachable over the wire.
	if name == "." || name == ".." {
		return fmt.Errorf("%w: stream name %q is a path dot segment", ErrBadOptions, name)
	}
	return nil
}

// Create registers a new stream under name, built over m with the given
// options. It fails with ErrStreamExists if the name is taken and
// ErrBadOptions for an invalid name or configuration. On a durable hub the
// stream's directory, manifest and WAL are provisioned before Create
// returns (and a leftover directory for the name is ErrStreamExists —
// closed streams keep their durable state).
func (h *Hub) Create(name string, m *Model, opts Options) (*Stream, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	es, opts, err := emptyStream(m, opts)
	if err != nil {
		return nil, err
	}
	return h.register(name, es, m, opts, nil)
}

// register inserts a stream under name (see newStream). Recovery brings
// the stream's durability state along; for Create a durable hub provisions
// it here — directory, manifest and WAL — under the hub lock, so no stream
// is reachable through Get before its persistence is attached (writes on
// it would bypass the WAL).
func (h *Hub) register(name string, es *engineStream, m *Model, opts Options, pers *streamPersist) (*Stream, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.streams[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamExists, name)
	}
	if pers == nil && h.p != nil {
		var err error
		if pers, err = h.p.initStream(name, opts); err != nil {
			return nil, err
		}
	}
	s := newStream(name, h, m, opts, es, pers)
	h.streams[name] = s
	return s, nil
}

// budget is the hot-tier budget the residency policy enforces (see
// PersistOptions.MaxResidentStreams / MaxResidentBytes); the zero Budget —
// every in-memory hub's — bounds nothing.
func (h *Hub) budget() residency.Budget {
	if h.p == nil {
		return residency.Budget{}
	}
	return residency.Budget{MaxStreams: h.p.opts.MaxResidentStreams, MaxBytes: h.p.opts.MaxResidentBytes}
}

// startSweeper launches the hub's one background goroutine, which
// re-applies the residency budget every ResidencySweep. A hub without a
// budget starts nothing. Called once, from OpenHub.
func (h *Hub) startSweeper() {
	if !h.budget().Enabled() {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(h.p.opts.ResidencySweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := h.EnforceResidency(); err != nil {
					h.p.logger().Warn("residency sweep failed", "error", err)
				}
			case <-stop:
				return
			}
		}
	}()
	// Waiting for the exit means no hibernate op can be enqueued after
	// CloseAll starts draining.
	h.stopSweeper = sync.OnceFunc(func() {
		close(stop)
		<-done
	})
}

// EnforceResidency applies the residency budget once, synchronously: it
// snapshots the resident streams, and the policy's walk
// (residency.Budget.Walk) hibernates them coldest first by last touch
// until the resident count and summed approximate bytes fit the
// configured budget; the number hibernated is returned. Streams that are
// busy (standing queries) or closing stay resident and the walk moves on
// to the next-coldest; other hibernation failures are joined into the
// returned error. The background sweeper calls this every ResidencySweep
// — it is the only place the hub evicts, so between two sweeps
// activations may take the tier over its budget; callers may also invoke
// it directly (e.g. before a measurement that wants a settled hot tier).
// Without a budget it hibernates nothing.
func (h *Hub) EnforceResidency() (int, error) {
	var hss []*Stream
	var cands []residency.Candidate
	h.mu.RLock()
	for _, hs := range h.streams {
		if hs.stp.Load() != nil {
			hss = append(hss, hs)
			cands = append(cands, residency.Candidate{Touch: hs.lastTouch.Load(), Bytes: hs.residentBytes.Load()})
		}
	}
	h.mu.RUnlock()
	var errs []error
	victims := h.budget().Walk(cands, func(i int) bool {
		err := hss[i].Hibernate()
		if err != nil && !errors.Is(err, ErrStreamBusy) && !errors.Is(err, ErrStreamClosed) {
			errs = append(errs, fmt.Errorf("hibernating %q: %w", hss[i].name, err))
		}
		return err == nil
	})
	obsResEvictions.Add(uint64(len(victims)))
	return len(victims), errors.Join(errs...)
}

// Get returns the stream registered under name, or ErrUnknownStream.
func (h *Hub) Get(name string) (*Stream, error) {
	h.mu.RLock()
	hs, ok := h.streams[name]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return hs, nil
}

// List returns the registered stream names, sorted.
func (h *Hub) List() []string {
	h.mu.RLock()
	names := make([]string, 0, len(h.streams))
	for name := range h.streams {
		names = append(names, name)
	}
	h.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered streams.
func (h *Hub) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.streams)
}

// Close unregisters name and closes its stream (see Stream.Close). It
// returns ErrUnknownStream for a name that was never registered (or
// already closed).
func (h *Hub) Close(name string) error {
	h.mu.Lock()
	hs, ok := h.streams[name]
	delete(h.streams, name)
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return hs.shutdown()
}

// CloseAll closes every registered stream — the graceful-shutdown sweep:
// on a durable hub each stream drains its queue and takes its final
// checkpoint, and every stream's Done channel closes so SSE consumers and
// other long-lived readers shut down. Errors are joined; streams close
// regardless.
func (h *Hub) CloseAll() error {
	if h.stopSweeper != nil {
		h.stopSweeper()
	}
	var errs []error
	for _, name := range h.List() {
		if err := h.Close(name); err != nil && !errors.Is(err, ErrUnknownStream) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
