package main

import (
	"sync/atomic"

	"repro/internal/pipeline"
)

// countingObjective counts annealer objective evaluations through the
// public Config.Objective seam. Spec returns the wrapped objective's
// spec, so selection keys and fingerprints — and therefore selections —
// stay bit-identical to an uncounted run. Cost may be called from
// several annealing goroutines at once.
type countingObjective struct {
	inner pipeline.Objective
	evals *atomic.Int64
}

func newCountingObjective() countingObjective {
	return countingObjective{inner: pipeline.CNOTObjective(), evals: new(atomic.Int64)}
}

func (o countingObjective) Spec() string { return o.inner.Spec() }

func (o countingObjective) Cost(s pipeline.ChoiceStats, info pipeline.CircuitInfo) float64 {
	o.evals.Add(1)
	return o.inner.Cost(s, info)
}
