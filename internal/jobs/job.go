// Package jobs implements the crash-safe job layer behind questd: a
// bounded, priority-ordered queue of synthesis jobs, a pool of workers
// driving internal/pipeline under per-job deadlines, and an append-only
// checksummed journal that makes every job transition durable — a
// `kill -9` mid-synthesis recovers on the next Open with no duplicate
// execution of completed work.
//
// # Job lifecycle
//
//	            ┌────────────── retryable failure / crash recovery
//	            ▼               (attempt++, exponential backoff+jitter)
//	Queued ─► Running ─► Done
//	  │          │  └───► Failed     (deadline, retries exhausted)
//	  └──────────┴──────► Cancelled  (explicit DELETE)
//
// Every transition appends one journal record. On Open the journal is
// replayed: Queued jobs re-enqueue, Running jobs were lost to a crash
// and re-enqueue with one attempt consumed (until the retry budget is
// exhausted, then they fail), and terminal jobs are retained for status
// and result serving. Torn or corrupt journal tails are skipped, never
// fatal — the journal is an internal/durable line log, like
// internal/ucache's disk journal.
//
// # Results and the artifact store
//
// A completed job's heavy state is a content-addressed SynthesisArtifact
// (pipeline.Save/LoadSynthesis) keyed by the canonical QASM plus every
// synthesis-side Config field. Results are rendered from the artifact by
// pipeline.Reselect, which is bit-identical to the run that produced it,
// so a resubmitted circuit (or an M re-sweep of one) costs a Reselect
// instead of a full run, and a result recomputed after a restart is
// verified bit-for-bit against the SHA journaled at completion.
package jobs

import (
	"errors"
	"time"
)

// State is a job's position in the lifecycle state machine.
type State string

const (
	// Queued: admitted, journaled, waiting for a worker (possibly with a
	// retry backoff holding it back).
	Queued State = "queued"
	// Running: claimed by a worker, pipeline in progress.
	Running State = "running"
	// Done: completed; the result is servable (recomputed from the
	// artifact store if the process restarted since).
	Done State = "done"
	// Failed: terminal failure — deadline exceeded, retry budget
	// exhausted, or crashed too many times.
	Failed State = "failed"
	// Cancelled: explicitly cancelled while queued or running.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Params are the per-job pipeline settings a submission may override;
// zero values inherit the manager's base pipeline Config (and
// DefaultTimeout for Timeout).
type Params struct {
	// Epsilon is the per-block process-distance budget.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxSamples is M, the ensemble size cap.
	MaxSamples int `json:"max_samples,omitempty"`
	// BlockSize is the maximum partition block size, at most
	// pipeline.MaxBlockSize.
	BlockSize int `json:"block_size,omitempty"`
	// Seed drives the deterministic pipeline.
	Seed int64 `json:"seed,omitempty"`
	// Objective names the selection objective ("cnot",
	// "fidelity[:<backend>]", "hybrid:<w>[:<backend>]"); empty inherits
	// the manager's base pipeline objective. Deliberately NOT filled by
	// resolveParams: journals from before the field existed (and
	// objective-less submissions today) must replay byte-identically.
	Objective string `json:"objective,omitempty"`
	// Timeout is the per-job end-to-end deadline. A job that exceeds it
	// fails terminally (rerunning would hit the same wall).
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// Backend optionally names an execution backend ("ideal",
	// "noisy:0.005", "manila"); when set (and the circuit is small
	// enough to simulate) the result carries ensemble TVD/JSD stats.
	Backend string `json:"backend,omitempty"`
	// Shots is the measurement-shot count for the backend stats
	// (0 = exact probabilities).
	Shots int `json:"shots,omitempty"`
}

// Request is one job submission.
type Request struct {
	// QASM is the OpenQASM 2.0 source of the circuit to approximate.
	QASM string
	// Tenant attributes the job to a per-tenant queue quota; empty is
	// the anonymous tenant.
	Tenant string
	// Priority orders the queue (higher first; FIFO within a priority).
	Priority int
	// From optionally names a completed job whose synthesis artifact
	// this job reselects under its own ε/M — the explicit sweep path.
	// The candidate pool is the parent's harvest (synthesized at the
	// parent's ε), exactly the library's Reselect contract.
	From string
	// Params tune the pipeline for this job.
	Params Params
}

// Job is the queue's view of one submission. Manager methods return
// copies; mutating a returned Job has no effect.
type Job struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// QASM is the canonicalized circuit source (parsed and re-written,
	// so byte-identical submissions and semantically identical ones
	// address the same artifact).
	QASM   string `json:"qasm"`
	From   string `json:"from,omitempty"`
	Params Params `json:"params"`

	State    State  `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`

	// ArtifactKey addresses the job's SynthesisArtifact in the content
	// store; ArtifactEpsilon is the ε the artifact was (or must be, if
	// it has to be rebuilt after loss) synthesized at. They differ from
	// the job's own ε only for From-jobs.
	ArtifactKey     string  `json:"artifact_key,omitempty"`
	ArtifactEpsilon float64 `json:"artifact_epsilon,omitempty"`
	// ResultSHA is the content hash journaled at completion; results
	// recomputed after a restart are verified against it.
	ResultSHA string `json:"result_sha,omitempty"`

	// Wall-clock telemetry (journal timestamps; never feeds results).
	SubmittedAt time.Time `json:"submitted_at,omitempty"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	// seq orders jobs FIFO within a priority; notBefore delays retries.
	seq       uint64
	notBefore time.Time
	// cancelRequested marks a Cancel() on a running job, so the
	// resulting ErrCancelled is classified as a cancellation rather
	// than a retryable failure.
	cancelRequested bool
}

// Typed admission and lookup errors; the HTTP layer maps these onto
// status codes (429 for the shedding pair, 404/409 for the lookups).
var (
	// ErrQueueFull sheds a submission because the global queue bound is
	// reached. The caller should back off and retry.
	ErrQueueFull = errors.New("job queue full")
	// ErrTenantFull sheds a submission because the tenant's queue quota
	// is reached (the shared queue may still have room).
	ErrTenantFull = errors.New("tenant queue full")
	// ErrDraining rejects a submission while the manager is shutting
	// down.
	ErrDraining = errors.New("manager draining")
	// ErrUnknownJob reports a job ID that is not (or no longer) known.
	ErrUnknownJob = errors.New("unknown job")
	// ErrNotDone reports a result request for a job that has not
	// completed successfully.
	ErrNotDone = errors.New("job not done")
	// ErrTerminal reports a cancel request for an already-terminal job.
	ErrTerminal = errors.New("job already terminal")
	// ErrInvalid reports a malformed submission (unparseable QASM, bad
	// From reference); the HTTP layer maps it to 400.
	ErrInvalid = errors.New("invalid job request")
)
