package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/par"
)

// assertArtifactsEqual is the golden comparison for the shared
// scheduler's bit-identity claim: every field of the SynthesisArtifact
// chain except wall-clock telemetry must match the private-pool artifact
// exactly — blocks, thresholds, candidates (circuits, distances, CNOT
// counts), the raw harvest, pairwise distances, degradations, and keys.
func assertArtifactsEqual(t *testing.T, want, got *SynthesisArtifact) {
	t.Helper()
	wp, gp := want.Partition, got.Partition
	if !reflect.DeepEqual(wp.Blocks, gp.Blocks) {
		t.Fatal("partition blocks differ")
	}
	if wp.Threshold != gp.Threshold || wp.Key != gp.Key {
		t.Fatalf("partition threshold/key differ: %g/%q vs %g/%q",
			wp.Threshold, wp.Key, gp.Threshold, gp.Key)
	}
	if !reflect.DeepEqual(want.Blocks, got.Blocks) {
		t.Fatal("synthesized blocks differ")
	}
	if !reflect.DeepEqual(want.Degradations, got.Degradations) {
		t.Fatalf("degradations differ: %v vs %v", want.Degradations, got.Degradations)
	}
	if want.Key != got.Key {
		t.Fatalf("synthesis keys differ: %q vs %q", want.Key, got.Key)
	}
	if want.CacheStats != got.CacheStats {
		t.Fatalf("cache stats differ: %+v vs %+v", want.CacheStats, got.CacheStats)
	}
}

// TestSchedulerQualityDegradationGolden forces block 1 to fail every
// synthesis attempt and asserts the shared-pool path degrades it exactly
// like the private pool (same block, same attempt count, same reason,
// exact-only candidate set).
func TestSchedulerQualityDegradationGolden(t *testing.T) {
	restore := faultinject.Set("core.block.1", faultinject.FailAlways(errors.New("injected synth failure")))
	defer restore()

	c := algos.TFIM(4, 3, 0.1, 1, 1)
	cfg := testConfig()
	private, err := Synthesize(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = par.NewPool(2)
	shared, err := Synthesize(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(private.Degradations) == 0 {
		t.Fatal("fault injection produced no degradation")
	}
	assertArtifactsEqual(t, private, shared)
}

// TestSchedulerRunCtx exercises the public entry point with a Scheduler
// set: RunCtx must produce the same Result as the private pool and still
// record stage timing.
func TestSchedulerRunCtx(t *testing.T) {
	c := algos.TFIM(4, 2, 0.1, 1, 1)
	cfg := testConfig()
	rp, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = par.NewPool(2)
	rs, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp.Selected, rs.Selected) {
		t.Fatal("RunCtx results differ between private and shared pools")
	}
	if rs.Timing.Partition <= 0 || rs.Timing.Synthesis <= 0 {
		t.Errorf("shared-pool timing not recorded: %+v", rs.Timing)
	}
}

// TestSharedSchedulerGolden runs several compilations concurrently
// against ONE shared scheduler pool and asserts each result is
// bit-identical to its solo private-pool run — the cross-circuit
// scheduler must never change outputs, only wall-clock.
func TestSharedSchedulerGolden(t *testing.T) {
	circuits := []*circuit.Circuit{
		algos.TFIM(4, 2, 0.1, 1, 1),
		algos.Heisenberg(4, 2, 0.1, 1, 1),
		algos.XY(4, 2, 0.1, 1),
	}
	base := testConfig()
	want := make([]*SynthesisArtifact, len(circuits))
	for i, c := range circuits {
		art, err := Synthesize(context.Background(), c, base)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = art
	}

	pool := par.NewPool(3)
	got := make([]*SynthesisArtifact, len(circuits))
	errs := make([]error, len(circuits))
	done := make(chan int, len(circuits))
	for i, c := range circuits {
		go func(i int, c *circuit.Circuit) {
			cfg := base
			cfg.Scheduler = pool
			got[i], errs[i] = Synthesize(context.Background(), c, cfg)
			done <- i
		}(i, c)
	}
	for range circuits {
		<-done
	}
	for i := range circuits {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertArtifactsEqual(t, want[i], got[i])
	}
}

// TestSchedulerCancelNoGoroutineLeak is the shared-pool twin of
// TestCancelMidSynthesisNoGoroutineLeak: cancelling mid-flight must
// surface budget.ErrCancelled and unwind every worker the pool's
// ForEachErr started.
func TestSchedulerCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	c := algos.TFIM(4, 3, 0.1, 1, 1)
	cfg := testConfig()
	cfg.Scheduler = par.NewPool(2)

	restore := faultinject.Set("core.block.0", faultinject.Stall(150*time.Millisecond))
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := Synthesize(ctx, c, cfg)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, budget.ErrCancelled) {
			t.Fatalf("err = %v, want budget.ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shared-pool Synthesize did not return after cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancelled shared-pool synthesis: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerBudgetDegraded expires the run budget mid-synthesis with
// AllowDegraded set: the shared-pool path must still return a valid,
// fully-populated result — every block present with at least its exact
// candidate — exactly like the private pool's degradation contract.
func TestSchedulerBudgetDegraded(t *testing.T) {
	restore := faultinject.Set("core.block.0", faultinject.Stall(100*time.Millisecond))
	defer restore()

	c := algos.TFIM(4, 3, 0.1, 1, 1)
	cfg := testConfig()
	cfg.Scheduler = par.NewPool(2)
	cfg.AllowDegraded = true
	cfg.Timeout = 50 * time.Millisecond

	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatalf("AllowDegraded run failed: %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("expired budget produced no degradations")
	}
	for i, ba := range res.Blocks {
		if len(ba.Candidates) == 0 {
			t.Fatalf("block %d has no candidates in degraded result", i)
		}
	}
	if len(res.Selected) == 0 {
		t.Fatal("degraded result selected nothing")
	}
}
