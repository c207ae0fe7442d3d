package noise

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
)

func TestRunCtxMatchesRun(t *testing.T) {
	// The ctx variant with a live context is bit-identical to Run.
	c := bell()
	m := Uniform(0.05)
	opts := Options{Trajectories: 40, Shots: 256, Seed: 7}
	want := m.Run(c, opts)
	got, err := m.RunCtx(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RunCtx diverges from Run at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := Uniform(0.05).RunCtx(ctx, bell(), Options{Trajectories: 40})
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if p != nil {
		t.Error("cancelled run returned a distribution")
	}
}

func TestRunCtxDeadlineStopsTrajectories(t *testing.T) {
	// A deadline far below the cost of the trajectory budget must stop
	// the loop promptly with the typed error (checked per trajectory).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	c := bell()
	for i := 0; i < 200; i++ { // deep circuit: many noisy ops per trajectory
		c.H(0)
		c.CX(0, 1)
	}
	start := time.Now()
	_, err := Uniform(0.05).RunCtx(ctx, c, Options{Trajectories: 1_000_000})
	if !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("run took %v after a 10ms deadline", elapsed)
	}
}

func TestDeviceRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Manila().RunCtx(ctx, bell(), Options{Trajectories: 40})
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestDeviceRunCtxMatchesRun(t *testing.T) {
	d := QuitoT()
	c := bell()
	opts := Options{Trajectories: 30, Shots: 128, Seed: 3}
	want, err := d.Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.RunCtx(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Device.RunCtx diverges at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestRunCtxRejectsNegativeTrajectories(t *testing.T) {
	opts := Options{Trajectories: -5, Seed: 2}
	if p, err := Uniform(0.05).RunCtx(context.Background(), bell(), opts); err == nil || p != nil {
		t.Fatalf("Trajectories=-5: got %v, %v; want nil and an error", p, err)
	}
	if p := Uniform(0.05).Run(bell(), opts); p != nil {
		t.Errorf("Run with Trajectories=-5 returned %v", p)
	}
	if _, err := Manila().RunCtx(context.Background(), bell(), opts); err == nil {
		t.Error("Device.RunCtx accepted Trajectories=-5")
	}
	// Zero still selects the default budget of 100.
	want := Uniform(0.05).Run(bell(), Options{Trajectories: 100, Seed: 2})
	got, err := Uniform(0.05).RunCtx(context.Background(), bell(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Trajectories=0 diverges from 100 at %d: %g vs %g", k, got[k], want[k])
		}
	}
}
