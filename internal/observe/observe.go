// Package observe is the one contract behind every per-point observer
// of a campaign. A Kind attaches to a point's measurement run as a
// system.Option, finishes into the point's artifact — stored for the
// CLIs and the live server, and returned as JSON for the checkpoint —
// and restores that artifact from a resumed checkpoint. The campaign
// runner drives a list of kinds without knowing what any of them
// observes, so a new observer is one adapter here plus the line that
// registers it.
package observe

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"odbscale/internal/system"
)

// Finish completes a kind's observation of one run. With ok (the run
// succeeded) it stores the point's artifact and returns its JSON for
// the checkpoint; a nil result means the run left no artifact. A failed
// run is retired without one.
type Finish func(ok bool) (json.RawMessage, error)

// Kind is one per-point observer of a campaign. Observers are
// observation-only: attaching any set of kinds leaves a run's metrics
// bit-identical.
type Kind interface {
	// Name keys the kind's artifacts in checkpoints.
	Name() string
	// Attach arms the kind for the measurement run of the named point.
	Attach(point string) (system.Option, Finish)
	// Restore puts a checkpointed artifact of the named point back.
	Restore(point string, data json.RawMessage) error
	// Endpoint returns the live endpoint path serving the kind's
	// artifacts and the writer of its JSON payload; the path is "" for a
	// kind served by other means.
	Endpoint() (path string, write func(io.Writer) error)
}

// Store keeps one artifact per point, keyed by point name ("W=10,P=1")
// in insertion order so every listing is deterministic. It is safe for
// concurrent use.
type Store[T any] struct {
	mu    sync.Mutex
	keys  []string
	byKey map[string]T
}

// NewStore returns an empty store.
func NewStore[T any]() *Store[T] { return &Store[T]{byKey: map[string]T{}} }

// Put stores a point's artifact, replacing any previous one.
func (s *Store[T]) Put(key string, v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byKey[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.byKey[key] = v
}

// Get returns the artifact stored for key, or the zero T.
func (s *Store[T]) Get(key string) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key]
}

// Keys returns the stored point names in insertion order.
func (s *Store[T]) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.keys...)
}

// WriteJSON writes every stored artifact as one indented JSON array of
// {"key": point, field: artifact} objects, in insertion order — the
// payload of a campaign's live endpoint for the kind.
func (s *Store[T]) WriteJSON(w io.Writer, field string) error {
	s.mu.Lock()
	entries := make([]entry[T], 0, len(s.keys))
	for _, k := range s.keys {
		entries = append(entries, entry[T]{key: k, field: field, val: s.byKey[k]})
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(entries); err != nil {
		return fmt.Errorf("observe: encoding %s store: %w", field, err)
	}
	return nil
}

// entry is one WriteJSON element; its field name varies by kind, so it
// marshals itself rather than through struct tags.
type entry[T any] struct {
	key, field string
	val        T
}

func (e entry[T]) MarshalJSON() ([]byte, error) {
	k, err := json.Marshal(e.key)
	if err != nil {
		return nil, err
	}
	f, err := json.Marshal(e.field)
	if err != nil {
		return nil, err
	}
	v, err := json.Marshal(e.val)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, `{"key":%s,%s:%s}`, k, f, v), nil
}
