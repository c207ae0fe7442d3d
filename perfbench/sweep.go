package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/algos"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/ucache"
)

// The fig-sweep grid. Artifacts are synthesized once at the tightest ε,
// whose candidate pool serves every wider point (pipeline.Reselect).
var (
	sweepEpsilons = []float64{0.02, 0.05, 0.1}
	sweepSamples  = []int{4, 16}
)

const (
	sweepBackend = "noisy:0.005"
	sweepSimSeed = 1
)

// table1Small returns one circuit per Table-1 benchmark and size at 4–5
// qubits (adder and multiplier round sizes, so duplicates are dropped).
func table1Small() ([]namedCircuit, error) {
	var out []namedCircuit
	for _, name := range algos.Names() {
		seen := map[int]bool{}
		for _, n := range []int{4, 5} {
			c, err := algos.Generate(name, n)
			if err != nil {
				return nil, err
			}
			if seen[c.NumQubits] || c.NumQubits < 4 || c.NumQubits > 5 {
				continue
			}
			seen[c.NumQubits] = true
			out = append(out, namedCircuit{fmt.Sprintf("%s_%d", name, c.NumQubits), c})
		}
	}
	return out, nil
}

type sweepPoint struct {
	circuit int
	eps     float64
	m       int
}

func (p sweepPoint) key(cs []namedCircuit) string {
	return fmt.Sprintf("%s eps=%g m=%d", cs[p.circuit].name, p.eps, p.m)
}

// sweepState is what the set-up leaves for the timed phase.
type sweepState struct {
	circuits []namedCircuit
	ideal    [][]float64
	arts     []*pipeline.SynthesisArtifact
	points   []sweepPoint
	runner   pipeline.RunnerCtx
	simRuns  atomic.Int64 // runner calls
}

func synthConfig(nproc int) pipeline.Config {
	return pipeline.Config{Epsilon: sweepEpsilons[0], SynthCache: ucache.New(cacheSize, 0), Parallelism: nproc}
}

// sweepSetup synthesizes one artifact per circuit on a fresh shared
// cache.
func sweepSetup(ctx context.Context, e env, cs []namedCircuit) ([]*pipeline.SynthesisArtifact, error) {
	cfg := synthConfig(e.nproc)
	arts := make([]*pipeline.SynthesisArtifact, len(cs))
	for i, nc := range cs {
		a, err := pipeline.Synthesize(ctx, nc.c, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nc.name, err)
		}
		arts[i] = a
	}
	return arts, nil
}

// pointResult is one evaluated grid point.
type pointResult struct {
	res     *pipeline.Result
	tvd     float64
	latency time.Duration
}

// evalPoint runs one grid point: Reselect, the ensemble on the noisy
// backend, and the TVD against the ideal output of the original circuit.
// With a recorder, the two public calls get spans.
func (s *sweepState) evalPoint(ctx context.Context, e env, p sweepPoint, obj pipeline.Objective, rec *recorder, lc *layerCounts) (pointResult, error) {
	t := time.Now()
	root, endRoot := rec.begin("point "+p.key(s.circuits), "", 0, 0)
	cfg := pipeline.Config{Epsilon: p.eps, MaxSamples: p.m, Parallelism: e.nproc, Objective: obj}
	_, endSel := rec.begin("Reselect", "select", root, 0)
	res, err := pipeline.Reselect(ctx, s.arts[p.circuit], cfg)
	if err != nil {
		return pointResult{}, fmt.Errorf("%s: %w", p.key(s.circuits), err)
	}
	endSel(map[string]any{"samples": len(res.Selected)})
	_, endSim := rec.begin("EnsembleProbabilitiesCtx", "sim", root, 0)
	probs, err := res.EnsembleProbabilitiesCtx(ctx, s.runner, e.nproc)
	if err != nil {
		return pointResult{}, fmt.Errorf("%s: %w", p.key(s.circuits), err)
	}
	endSim(map[string]any{"runs": len(res.Selected)})
	tvd := metrics.TVD(probs, s.ideal[p.circuit])
	endRoot(map[string]any{"tvd": tvd})
	if lc != nil {
		lc.samples += len(res.Selected)
	}
	return pointResult{res, tvd, time.Since(t)}, nil
}

// round evaluates every grid point once, in order.
func (s *sweepState) round(ctx context.Context, e env, order []int, obj pipeline.Objective, rec *recorder, lc *layerCounts) ([]pointResult, error) {
	out := make([]pointResult, len(s.points))
	for _, i := range order {
		r, err := s.evalPoint(ctx, e, s.points[i], obj, rec, lc)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (s *sweepState) outcomes(rs []pointResult) []outcome {
	outs := make([]outcome, len(rs))
	for i, r := range rs {
		outs[i] = outcomeOf(s.points[i].key(s.circuits), r.res)
	}
	return outs
}

// checkBound verifies the Sec. 3.8 bound for every selected
// approximation of every point, independently of the pipeline:
// HS(approximation, original) ≤ Σε, from sim.Unitary and
// linalg.HSDistance.
func (s *sweepState) checkBound(res *result, rs []pointResult) {
	orig := make([]*linalg.Matrix, len(s.circuits))
	for i, nc := range s.circuits {
		orig[i] = sim.Unitary(nc.c)
	}
	for i, r := range rs {
		p := s.points[i]
		for k, a := range r.res.Selected {
			if d := linalg.HSDistance(orig[p.circuit], sim.Unitary(a.Circuit)); d > a.EpsilonSum+1e-6 {
				res.problem("%s approximation %d: HS distance %g > Σε %g", p.key(s.circuits), k, d, a.EpsilonSum)
			}
		}
	}
}

func newSweepState(e env) (*sweepState, error) {
	cs, err := table1Small()
	if err != nil {
		return nil, err
	}
	be, err := backend.Get(sweepBackend)
	if err != nil {
		return nil, err
	}
	s := &sweepState{circuits: cs}
	inner := backend.AsRunnerCtx(be, 0, sweepSimSeed)
	s.runner = func(ctx context.Context, c *circuit.Circuit) ([]float64, error) {
		s.simRuns.Add(1)
		return inner(ctx, c)
	}
	for i := range cs {
		s.ideal = append(s.ideal, sim.Probabilities(cs[i].c))
		for _, eps := range sweepEpsilons {
			for _, m := range sweepSamples {
				s.points = append(s.points, sweepPoint{i, eps, m})
			}
		}
	}
	return s, nil
}

// runSweep is the fig-sweep workload. Set-up (timed as setup_s, three
// times on fresh caches) synthesizes the artifacts; the timed phase
// repeats rounds over the whole grid, each in a seeded order, until
// --seconds have passed. The seed orders the points, which cannot change
// their results.
func runSweep(ctx context.Context, e env, traced bool) (*result, error) {
	res := &result{metrics: map[string]metric{}, reported: map[string]metric{}}
	s, err := newSweepState(e)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	if traced {
		return sweepTraced(ctx, e, res, s, rng)
	}

	var setups []float64
	for range 3 {
		t := time.Now()
		arts, err := sweepSetup(ctx, e, s.circuits)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		s.arts = arts
	}
	res.metrics["setup_s"] = medianOf(setups)

	var walls, cpus, latencies []float64
	var first []pointResult
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.seconds {
		t, cpu := time.Now(), cpuTime()
		rs, err := s.round(ctx, e, rng.Perm(len(s.points)), nil, nil, nil)
		res.attempted += len(s.points)
		if err != nil {
			res.failed += len(s.points)
			return nil, err
		}
		walls = append(walls, time.Since(t).Seconds())
		cpus = append(cpus, (cpuTime() - cpu).Seconds())
		for _, r := range rs {
			latencies = append(latencies, float64(r.latency.Nanoseconds())/1e6)
		}
		if first == nil {
			first = rs
		} else if digest(s.outcomes(rs)) != digest(s.outcomes(first)) {
			res.problem("sweep results differ between rounds")
		}
	}
	fmt.Fprintf(e.out, "%d rounds of %d points\n", len(walls), len(s.points))
	outs := s.outcomes(first)
	for _, o := range outs {
		if err := o.check(); err != nil {
			res.problem("%v", err)
		}
	}
	s.checkBound(res, first)
	var tvd float64
	for _, r := range first {
		tvd += r.tvd
	}
	res.reported["tvd_mean"] = one(tvd / float64(len(first)))
	res.metrics["wall_s"] = medianOf(walls)
	res.metrics["cpu_s"] = medianOf(cpus)
	res.reported["job_p50_ms"] = pctOf(latencies, 50)
	res.reported["job_p90_ms"] = pctOf(latencies, 90)
	res.metrics["cnot_reduction_pct"] = one(cnotReductionPct(outs))
	res.digest = digest(outs)
	return res, nil
}

// sweepTraced runs set-up and one round untraced, then again traced:
// the traced set-up synthesizes block by block, the traced round puts
// spans around Reselect and EnsembleProbabilitiesCtx and counts
// objective evaluations.
func sweepTraced(ctx context.Context, e env, res *result, s *sweepState, rng *rand.Rand) (*result, error) {
	order := rng.Perm(len(s.points))
	t := time.Now()
	arts, err := sweepSetup(ctx, e, s.circuits)
	if err != nil {
		return nil, err
	}
	s.arts = arts
	plain, err := s.round(ctx, e, order, nil, nil, nil)
	res.attempted += len(s.points)
	if err != nil {
		return nil, err
	}
	untracedWall := time.Since(t)

	rec := newRecorder()
	lc := &layerCounts{}
	obj := newCountingObjective()
	lc.evals = obj.evals
	s.simRuns.Store(0)
	t = time.Now()
	cfg := synthConfig(e.nproc)
	for i, nc := range s.circuits {
		root, endRoot := rec.begin("synthesize "+nc.name, "", 0, 0)
		a, err := synthesizeTraced(ctx, rec, root, nc.c, cfg, e.nproc, lc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nc.name, err)
		}
		endRoot(nil)
		s.arts[i] = a
	}
	rs, err := s.round(ctx, e, order, obj, rec, lc)
	res.attempted += len(s.points)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t)
	lc.simRuns.Store(s.simRuns.Load())
	outs := s.outcomes(rs)
	for _, o := range outs {
		if err := o.check(); err != nil {
			res.problem("%v", err)
		}
	}
	res.digest = digest(outs)
	if d := digest(s.outcomes(plain)); d != res.digest {
		res.problem("traced digest %s differs from untraced %s", res.digest, d)
	}
	fmt.Fprintf(e.out, "untraced %.3fs, traced %.3fs\n", untracedWall.Seconds(), tracedWall.Seconds())
	return res, finishTrace(e, "fig-sweep", res, rec, lc, t, tracedWall, overheadPct(untracedWall, tracedWall))
}
