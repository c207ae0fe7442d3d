package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// store is the content-addressed artifact store: every completed
// synthesis lands as one pipeline.SynthesisArtifact file whose name is
// the hash of the canonical QASM plus every synthesis-side Config field.
// A resubmitted circuit — or an M/CXWeight re-sweep of one — addresses
// the same file and becomes a Reselect instead of a full run; a result
// recomputed from the store after a restart is bit-identical to the one
// computed before it (the Reselect contract), which the manager verifies
// against the journaled result SHA.
type store struct {
	dir string
	// mu serializes saves: concurrent misses of one artifact would
	// otherwise race on its single .tmp path.
	mu sync.Mutex
}

func openStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create artifact dir: %w", err)
	}
	return &store{dir: dir}, nil
}

// artifactKey content-addresses a synthesis: the canonical QASM and the
// resolved synthesis-side Config fields (the same fields as the
// pipeline's synthKey — ε included, so a key hit reselects
// bit-identically to a fresh run at the request's own settings).
func artifactKey(canonicalQASM string, cfg pipeline.Config) string {
	cfg = cfg.Resolved()
	h := sha256.New()
	io.WriteString(h, canonicalQASM)
	fmt.Fprintf(h, "|bs=%d,eps=%x,beam=%d,restarts=%d,keep=%d,seed=%d,maxrestarts=%d",
		cfg.BlockSize, math.Float64bits(cfg.Epsilon), cfg.SynthBeam,
		cfg.SynthRestarts, cfg.SynthKeepPerDepth, cfg.Seed, cfg.MaxRestarts)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (s *store) path(key string) string {
	return filepath.Join(s.dir, "art-"+key+".json")
}

// load returns the artifact stored under key, or (nil, nil) when the
// store has none (including when a stored file fails to decode — a
// corrupt artifact is a cache miss, never an error: the job simply
// re-synthesizes and overwrites it).
func (s *store) load(key string) (*pipeline.SynthesisArtifact, error) {
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: open artifact: %w", err)
	}
	defer f.Close()
	art, err := pipeline.LoadSynthesis(f)
	if err != nil {
		return nil, nil // corrupt artifact = miss; the caller re-synthesizes
	}
	return art, nil
}

// save writes the artifact under key: tmp file, fsync, atomic rename —
// a crash mid-save can never leave a torn artifact under a live key.
func (s *store) save(key string, art *pipeline.SynthesisArtifact) error {
	if err := faultinject.Fire("jobs.artifact.write"); err != nil {
		return fmt.Errorf("jobs: write artifact: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path(key) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: write artifact: %w", err)
	}
	if err := art.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: write artifact: %w", err)
	}
	if err := syncJournal(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: sync artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: close artifact: %w", err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: replace artifact: %w", err)
	}
	return nil
}
