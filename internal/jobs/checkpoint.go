package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"nepdvs/internal/obs"
)

// checkpointSchema versions the queue checkpoint file.
const checkpointSchema = 1

// ErrCheckpointCorrupt is the errors.Is target for every defect Restore can
// find in an existing checkpoint file: truncation, bad JSON, a wrong
// schema, or a spec that no longer validates. A missing file is NOT corrupt
// (a fresh daemon has no checkpoint); only a file that exists but cannot be
// trusted is.
var ErrCheckpointCorrupt = errors.New("jobs: checkpoint corrupt")

// CorruptCheckpointError carries the path and underlying defect of an
// unusable checkpoint. It matches ErrCheckpointCorrupt under errors.Is, so
// callers can branch on "corrupt file" without string matching.
type CorruptCheckpointError struct {
	Path string
	Err  error
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("jobs: restore %s: checkpoint corrupt: %v", e.Path, e.Err)
}

func (e *CorruptCheckpointError) Unwrap() error { return e.Err }

// Is matches ErrCheckpointCorrupt, whatever the underlying defect.
func (e *CorruptCheckpointError) Is(target error) bool { return target == ErrCheckpointCorrupt }

// PersistedJob is one pending job as written to a checkpoint: its ID (so a
// client polling across a daemon restart keeps a valid handle), the full
// spec, and the job's requeue count so far (a job that keeps bouncing
// through drains stays visible as such across restarts).
type PersistedJob struct {
	ID       string `json:"id"`
	Spec     Spec   `json:"spec"`
	Requeues int    `json:"requeues,omitempty"`
}

type checkpointFile struct {
	Schema int            `json:"schema"`
	Jobs   []PersistedJob `json:"jobs"`
}

// Checkpoint writes the pending (queued, not running) jobs to path
// atomically, highest priority first. Call after Shutdown: the drain
// returns interrupted jobs to the pending queue, so nothing in flight is
// lost. An empty queue writes an empty checkpoint, clobbering any stale one.
func (q *Queue) Checkpoint(path string) error {
	q.mu.Lock()
	jobs := make([]*job, 0, len(q.pending))
	jobs = append(jobs, q.pending...)
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].spec.Priority != jobs[k].spec.Priority {
			return jobs[i].spec.Priority > jobs[k].spec.Priority
		}
		return jobs[i].seq < jobs[k].seq
	})
	cf := checkpointFile{Schema: checkpointSchema, Jobs: make([]PersistedJob, len(jobs))}
	for i, j := range jobs {
		cf.Jobs[i] = PersistedJob{ID: j.id, Spec: j.spec, Requeues: j.requeues}
	}
	q.mu.Unlock()

	b, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: checkpoint: %w", err)
	}
	return obs.AtomicWriteFile(path, b, 0o644)
}

// Restore loads a checkpoint into the queue, preserving job IDs so clients
// holding handles from before a restart still resolve. The load is all or
// nothing: every job is parsed, validated and keyed before the first one is
// inserted, so a truncated or corrupted file fails cleanly with a
// CorruptCheckpointError (errors.Is ErrCheckpointCorrupt) and leaves the
// queue exactly as it was — never half-loaded. Jobs whose key duplicates
// one already queued, and jobs whose ID the queue already holds under the
// same key (whatever their state), are skipped. Returns the number of jobs restored. A
// missing file restores nothing and is not an error — a fresh daemon has no
// checkpoint.
func (q *Queue) Restore(path string) (int, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("jobs: restore: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return 0, &CorruptCheckpointError{Path: path, Err: err}
	}
	if cf.Schema != checkpointSchema {
		return 0, &CorruptCheckpointError{Path: path, Err: fmt.Errorf("schema %d, want %d", cf.Schema, checkpointSchema)}
	}
	// Phase one: validate everything up front, touching no queue state.
	keys := make([]string, len(cf.Jobs))
	for i, pj := range cf.Jobs {
		if err := pj.Spec.Validate(); err != nil {
			return 0, &CorruptCheckpointError{Path: path, Err: fmt.Errorf("job %s: %w", pj.ID, err)}
		}
		key, err := pj.Spec.Key()
		if err != nil {
			return 0, &CorruptCheckpointError{Path: path, Err: fmt.Errorf("job %s: %w", pj.ID, err)}
		}
		keys[i] = key
	}
	// Phase two: insert under one lock. Nothing below can fail.
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	restored := 0
	for i, pj := range cf.Jobs {
		if _, dup := q.byKey[keys[i]]; dup {
			continue
		}
		var j *job
		if known, taken := q.byID[pj.ID]; taken {
			if known.key == keys[i] {
				// The queue already knows this job, in whatever state
				// (queued, running or finished): restoring it again is a
				// no-op, so repeated restores stay idempotent.
				continue
			}
			// A real ID collision (same ID, different work): mint a fresh
			// ID rather than corrupt the index.
			j = q.insertLocked("", keys[i], pj.Spec)
		} else {
			j = q.insertLocked(pj.ID, keys[i], pj.Spec)
		}
		j.requeues = pj.Requeues
		restored++
	}
	return restored, nil
}
