package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/pipeline"
)

// TestStoreConcurrentSavesOfOneKey saves one artifact from many
// goroutines at once, the way concurrent misses of the same job do.
// Every save must succeed and the key must load back.
func TestStoreConcurrentSavesOfOneKey(t *testing.T) {
	s, err := openStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art, err := pipeline.Synthesize(context.Background(), algos.TFIM(3, 1, 0.1, 1, 1),
		pipeline.Config{MaxSamples: 2, AnnealIterations: 50, SynthBeam: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const key, goroutines, saves = "k", 16, 8
	errs := make(chan error, goroutines*saves)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				errs <- s.save(key, art)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent save failed: %v", err)
		}
	}
	got, err := s.load(key)
	if err != nil || got == nil {
		t.Fatalf("load after concurrent saves = %v, %v; want the artifact", got, err)
	}
	if got.Key != art.Key || len(got.Blocks) != len(art.Blocks) {
		t.Fatalf("loaded artifact key %q with %d blocks, want %q with %d",
			got.Key, len(got.Blocks), art.Key, len(art.Blocks))
	}
}

// mixedWidthArtifact is a hand-written artifact whose one block holds a
// 2-qubit and a 3-qubit candidate: it decodes as JSON but is not a
// synthesis of anything, and its candidate distances would compare a 4×4
// unitary with an 8×8 one.
const mixedWidthArtifact = `{"version":1,"key":"k","partition_key":"bs=3","block_size":3,` +
	`"epsilon":0.05,"threshold_cap":0.5,"seed":1,"threshold":0.05,` +
	`"original":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\n",` +
	`"blocks":[{"qubits":[0,1],"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n",` +
	`"candidates":[{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n","distance":0,"cnots":0},` +
	`{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\n","distance":0,"cnots":0}]}],` +
	`"elapsed_ns":0,"partition_elapsed_ns":0}` + "\n"

// TestCorruptStoredArtifactIsResynthesized: a malformed artifact under
// a job's key is a store miss, so the job re-synthesizes (overwriting
// it) and completes, instead of failing every attempt.
func TestCorruptStoredArtifactIsResynthesized(t *testing.T) {
	opts := testOpts(t)
	idle := opts
	idle.Workers = -1
	m := openManager(t, idle)
	j, err := m.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opts.Dir, "artifacts", "art-"+j.ArtifactKey+".json")
	if err := os.WriteFile(path, []byte(mixedWidthArtifact), 0o644); err != nil {
		t.Fatal(err)
	}
	if art, err := m.store.load(j.ArtifactKey); art != nil || err != nil {
		t.Fatalf("load of a malformed artifact = %v, %v; want a miss", art, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := openManager(t, opts)
	done := waitState(t, m2, j.ID, Done)
	if done.Attempts != 1 {
		t.Fatalf("job took %d attempts, want 1", done.Attempts)
	}
	if st := m2.Stats().Counters; st.ArtifactMisses != 1 {
		t.Fatalf("artifact misses = %d, want 1 (the corrupt artifact)", st.ArtifactMisses)
	}
	if art, err := m2.store.load(j.ArtifactKey); art == nil || err != nil {
		t.Fatalf("re-synthesized artifact did not replace the corrupt one: %v, %v", art, err)
	}
}

func TestSubmitRejectsOverwideBlockSize(t *testing.T) {
	opts := testOpts(t)
	opts.Workers = -1
	m := openManager(t, opts)
	_, err := m.Submit(Request{QASM: testQASM(t), Params: Params{BlockSize: pipeline.MaxBlockSize + 1}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("submit with block size %d = %v, want ErrInvalid", pipeline.MaxBlockSize+1, err)
	}
	if _, err := m.Submit(Request{QASM: testQASM(t), Params: Params{BlockSize: pipeline.MaxBlockSize}}); err != nil {
		t.Fatalf("submit at the block-size bound: %v", err)
	}
}
