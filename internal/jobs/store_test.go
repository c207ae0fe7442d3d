package jobs

import (
	"context"
	"sync"
	"testing"

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
