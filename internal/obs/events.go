package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Event kinds emitted by the learning loop. Detail carries the
// human-readable specifics (rejection reason, breaker transition, error).
// Every kind is counted by the metric named beside it, moved at the same
// site as the emit; the journal adds the linkage, not the count.
const (
	EventSwapAccepted    = "swap-accepted"         // bao_retrains_total
	EventSwapRejected    = "swap-rejected"         // bao_retrain_rejected_total
	EventTrainerPanic    = "trainer-panic"         // bao_trainer_panics_total
	EventBreaker         = "breaker-transition"    // bao_breaker_state
	EventCheckpoint      = "checkpoint-saved"      // bao_checkpoints_saved_total
	EventCheckpointError = "checkpoint-save-error" // bao_checkpoint_save_errors_total
	EventRollback        = "checkpoint-rollback"   // bao_checkpoint_rollbacks_total
	EventCensored        = "censored"              // bao_query_timeouts_total
	EventAbandoned       = "abandoned"             // bao_server_abandoned_total
	// Segmented experience-log durability: read-only degradation and
	// recovery, plus snapshot-anchored compaction outcomes.
	EventExplogDegraded      = "explog-degraded"       // bao_explog_degraded
	EventExplogRestored      = "explog-restored"       // bao_explog_degraded
	EventExplogSnapshot      = "explog-snapshot"       // bao_explog_snapshots_total
	EventExplogSnapshotError = "explog-snapshot-error" // bao_explog_snapshot_errors_total
)

// Event is one structured lifecycle record: model swaps, breaker
// transitions, checkpoint saves and rollbacks, censored and abandoned
// outcomes. TraceID/RequestID link the event back to the decision that
// caused it (zero when the cause is unknown, e.g. a manual retrain).
type Event struct {
	Seq        uint64    `json:"seq"`
	At         time.Time `json:"at"`
	Kind       string    `json:"kind"`
	Detail     string    `json:"detail,omitempty"`
	TraceID    uint64    `json:"trace_id,omitempty"`
	RequestID  string    `json:"request_id,omitempty"`
	Arm        string    `json:"arm,omitempty"`
	Decision   uint64    `json:"decision,omitempty"`
	Generation uint64    `json:"generation,omitempty"`
	Secs       float64   `json:"secs,omitempty"`
}

// EventJournal keeps the last N events in a ring for /debug/events and
// optionally streams every event to a rotating JSONL file. Appends are
// serialized on the journal's own mutex, never inside any caller's lock
// except the breaker's transition callback (safe: the journal calls
// nothing back).
type EventJournal struct {
	mu     sync.Mutex
	seq    uint64
	recent ring[Event]

	f        *os.File
	path     string
	size     int64
	maxBytes int64
	keep     int
}

// NewEventJournal creates an in-memory journal retaining the last n
// events (n < 1 clamped to 1).
func NewEventJournal(n int) *EventJournal { return &EventJournal{recent: newRing[Event](n)} }

// LogTo additionally streams events to a JSONL file at path, rotating to
// path.1 … path.<keep> when the live file exceeds maxBytes (maxBytes <= 0
// means 4 MiB; keep < 1 means 3 rotated files).
func (j *EventJournal) LogTo(path string, maxBytes int64, keep int) error {
	if j == nil {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	if keep < 1 {
		keep = 3
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: open event journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("obs: stat event journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
	}
	j.f, j.path, j.size = f, path, st.Size()
	j.maxBytes, j.keep = maxBytes, keep
	return nil
}

// Append stamps ev with the next sequence number and wall time, stores it
// in the ring, and (when a file sink is attached) appends one JSON line.
// Returns the stamped event.
func (j *EventJournal) Append(ev Event) Event {
	if j == nil {
		return ev
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Seq = j.seq
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	j.recent.push(ev)
	if j.f != nil {
		line, err := json.Marshal(ev)
		if err == nil {
			line = append(line, '\n')
			if j.size+int64(len(line)) > j.maxBytes {
				j.rotateLocked()
			}
			if n, err := j.f.Write(line); err == nil {
				j.size += int64(n)
			}
		}
	}
	return ev
}

// rotateLocked shifts path.(k-1) → path.k, path → path.1 and reopens a
// fresh live file. Errors are swallowed: the journal is telemetry, not a
// ledger of record, and must never take the serving path down.
func (j *EventJournal) rotateLocked() {
	j.f.Close()
	for k := j.keep; k >= 2; k-- {
		os.Rename(fmt.Sprintf("%s.%d", j.path, k-1), fmt.Sprintf("%s.%d", j.path, k)) //nolint:errcheck
	}
	os.Rename(j.path, j.path+".1") //nolint:errcheck
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return
	}
	j.f, j.size = f, 0
}

// Events returns the retained events, newest first.
func (j *EventJournal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recent.newestFirst()
}

// Close detaches and closes the file sink (the in-memory ring keeps
// working).
func (j *EventJournal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
