package pipeline

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/par"
)

// Runner executes a circuit and returns its output distribution; it
// abstracts the ideal simulator, the noisy simulator, and device models so
// the ensemble rule is identical across backends (see internal/backend
// for the named, capability-tagged implementations).
//
// Concurrency contract: ensemble evaluation calls the Runner from
// multiple goroutines, so a Runner must be safe for concurrent use. Every
// Runner built by this repository is — each call owns its statevector and
// derives private RNG streams from its seed — but a custom Runner that
// mutates shared state must either synchronize internally or be driven
// through EnsembleProbabilitiesWorkers(run, 1).
type Runner func(*circuit.Circuit) ([]float64, error)

// RunnerCtx is a Runner that honors context cancellation (for example
// noise.Model.RunCtx); ensemble evaluation passes each call a context
// that is cancelled as soon as any sibling fails.
type RunnerCtx func(context.Context, *circuit.Circuit) ([]float64, error)

// EnsembleProbabilities runs every selected approximation through the
// runner and returns the pointwise average of their output distributions —
// QUEST's output rule (Sec. 3.6, Fig. 6). Approximations are evaluated
// concurrently with runtime.NumCPU() workers; the result is identical for
// every worker count (distributions are averaged in selection order).
func (r *Result) EnsembleProbabilities(run Runner) ([]float64, error) {
	return r.EnsembleProbabilitiesWorkers(run, 0)
}

// EnsembleProbabilitiesWorkers is EnsembleProbabilities with an explicit
// worker-goroutine cap (0 or negative selects runtime.NumCPU(), 1 forces
// serial evaluation for Runners that are not concurrency-safe).
func (r *Result) EnsembleProbabilitiesWorkers(run Runner, workers int) ([]float64, error) {
	return r.EnsembleProbabilitiesCtx(context.Background(),
		func(_ context.Context, c *circuit.Circuit) ([]float64, error) { return run(c) }, workers)
}

// EnsembleProbabilitiesCtx is EnsembleProbabilitiesWorkers under a
// context with a ctx-aware runner: a cancelled budget stops handing out
// approximations, the first runner failure cancels its siblings, and a
// panicking runner is isolated into a *par.PanicError instead of killing
// the process. The first failure by selection order is returned.
func (r *Result) EnsembleProbabilitiesCtx(ctx context.Context, run RunnerCtx, workers int) ([]float64, error) {
	if len(r.Selected) == 0 {
		return nil, fmt.Errorf("pipeline: no selected approximations")
	}
	dists := make([][]float64, len(r.Selected))
	err := par.ForEachErr(ctx, workers, len(r.Selected), func(rctx context.Context, i int) error {
		p, err := run(rctx, r.Selected[i].Circuit)
		if err != nil {
			return fmt.Errorf("pipeline: running approximation %d: %w", i, err)
		}
		dists[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return metrics.AverageDistributions(dists...), nil
}
