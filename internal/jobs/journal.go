package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
	"repro/internal/faultinject"
)

// The job journal is an append-only, checksummed record of every job
// transition, one record per line, kept by internal/durable's line log
// (the same format as internal/ucache's disk journal). The first line is
// a header pinning the format version; a record whose checksum or JSON
// does not verify is skipped at replay (a crash can only tear the final
// line, which reopening cuts off; bit rot can only lose single
// transitions, and the replay degrades gracefully — see rebuild in
// manager.go). Every append is fsynced before Submit/Done is
// acknowledged: an acknowledged transition survives power loss.
//
// Record vocabulary (op → fields):
//
//	submit  job                      job admitted to the queue
//	start   id, attempt              worker began attempt N
//	done    id, artifact, aeps, sha  completed; result addressable
//	fail    id, attempt, reason,     attempt N failed; final=true is
//	        final                    terminal, otherwise a retry follows
//	cancel  id                       explicit cancellation
//	state   job, state, attempt...   compaction snapshot of one job
//
// Compaction rewrites the journal as header + one "state" record per
// retained job (durable.Log.Rewrite: an atomic replace) once the record
// count exceeds compactFactor × the live-job count.

// journalVersion pins the record schema; an unknown version is moved
// aside and a fresh journal started (jobs are not portable across
// foreign versions). v2 added the optional Params.Objective field; a v1
// journal is a strict subset (every record decodes with the field
// empty, which means "inherit the base objective"), so v1 journals
// replay in place — see journalVersionMin.
const journalVersion = 2

// journalVersionMin is the oldest header version replayed in place.
// Versions in [journalVersionMin, journalVersion] are forward-compatible:
// newer versions only added omitempty record fields whose zero values
// reproduce the old behavior byte-for-byte.
const journalVersionMin = 1

// journalName is the journal file name inside the data directory.
const journalName = "jobs.journal"

// compactFactor triggers compaction when the journal holds more than
// this many records per retained job (min compactMin records).
const (
	compactFactor = 6
	compactMin    = 256
)

type journalHeader struct {
	V int `json:"v"`
}

// record is one journal line. Op selects which fields are meaningful.
type record struct {
	Op      string `json:"op"`
	T       int64  `json:"t,omitempty"` // unix nanos, telemetry only
	ID      string `json:"id,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Final   bool   `json:"final,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Artifact/AEps/SHA ride on done (and state) records.
	Artifact string  `json:"artifact,omitempty"`
	AEps     float64 `json:"aeps,omitempty"`
	SHA      string  `json:"sha,omitempty"`
	// Job rides on submit and state records; State on state records.
	Job   *Job  `json:"job,omitempty"`
	State State `json:"state,omitempty"`
}

// journal is the durable side of a Manager.
type journal struct {
	mu  sync.Mutex
	log *durable.Log[record]
	err error // first persistence failure; surfaced by health/close
}

// openJournal opens (or creates) the journal under dir and returns the
// replayable records of the existing body. A missing file, an empty
// file, or a version-mismatched header starts fresh (the old journal is
// preserved as .old for post-mortems); torn or corrupt body lines are
// skipped.
func openJournal(dir string) (*journal, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: create data dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	log, head, recs, err := durable.Open[journalHeader, record](path, journalHeader{V: journalVersion})
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	if head == nil || head.V < journalVersionMin || head.V > journalVersion {
		// Foreign or corrupt header: keep the bytes for inspection, but
		// never trust them as job state.
		old, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(path+".old", old, 0o644)
		}
		if err == nil {
			err = log.Rewrite(nil)
		}
		if err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("jobs: replace bad journal: %w", err)
		}
		recs = nil
	}
	return &journal{log: log}, recs, nil
}

// append commits one record (write + fsync). The first failure latches
// (health turns unhealthy) and is returned to the caller so an
// acknowledgement is never sent for an undurable transition.
func (j *journal) append(rec record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := faultinject.Fire("jobs.journal.append"); err != nil {
		j.err = fmt.Errorf("jobs: append record: %w", err)
		return j.err
	}
	if err := j.log.Commit(rec); err != nil {
		j.err = fmt.Errorf("jobs: append record: %w", err)
	}
	return j.err
}

// compact rewrites the journal as one state record per job when the
// body has outgrown the live set.
func (j *journal) compact(recs []record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.log.Rewrite(recs); err != nil {
		j.err = fmt.Errorf("jobs: compact journal: %w", err)
	}
	return j.err
}

// needsCompaction reports whether the body record count has outgrown
// the given live-job count.
func (j *journal) needsCompaction(liveJobs int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	bound := compactFactor * liveJobs
	if bound < compactMin {
		bound = compactMin
	}
	return j.log.Len() > bound
}

// health returns the first persistence failure, or nil while the
// journal is durable.
func (j *journal) health() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// close fsyncs and releases the journal file, reporting the first
// persistence failure encountered over the journal's lifetime.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Close(); j.err == nil && err != nil {
		j.err = fmt.Errorf("jobs: close journal: %w", err)
	}
	return j.err
}
