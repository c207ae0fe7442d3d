package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/ucache"
)

// cacheSize is the `quest` CLI's default synthesis-cache size; 0 would
// disable the cache.
const cacheSize = 1024

type namedCircuit struct {
	name string
	c    *circuit.Circuit
}

// loadCorpus reads and parses every .qasm file of dir, in name order.
func loadCorpus(dir string) ([]namedCircuit, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.qasm"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .qasm files in %s", dir)
	}
	sort.Strings(files)
	out := make([]namedCircuit, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[i] = namedCircuit{strings.TrimSuffix(filepath.Base(f), ".qasm"), c}
	}
	return out, nil
}

// serialConfig compiles one circuit at a time with defaults, nproc
// synthesis workers and the given cache.
func serialConfig(nproc int, cache *ucache.Cache) pipeline.Config {
	return pipeline.Config{SynthCache: cache, Parallelism: nproc}
}

// runCorpus is the corpus-cold workload. Every corpus circuit is first
// compiled one at a time, in corpus order, through pipeline.RunCtx on a
// fresh cache (job_p50_ms/job_p90_ms: the latency of each compile). The
// serial compiles expose the selected approximations, so they carry the
// output checks and the digest. The timed phase then repeats
// experiments.RunCorpus passes, each on a fresh cache, until --seconds
// have passed (wall_s, cpu_s: medians over the passes); every pass must
// agree with the serial compiles. The inputs are the committed corpus;
// the seed does not change them, because on a shared cache the order
// decides which compile pays for a block that two circuits share.
func runCorpus(ctx context.Context, e env, traced bool) (*result, error) {
	res := &result{metrics: map[string]metric{}, reported: map[string]metric{}}
	var circuits []namedCircuit
	setups, err := setupSamples(9, 20, func() (func() error, error) {
		cs, err := loadCorpus(e.corpus)
		circuits = cs
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = medianOf(setups)
	if traced {
		return corpusTraced(ctx, e, res, circuits)
	}

	outs, latencies, err := compileSerial(ctx, e, circuits)
	res.attempted += len(circuits)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if err := o.check(); err != nil {
			res.problem("%v", err)
		}
	}
	fmt.Fprintf(e.out, "serial compile %.3fs\n", totalSeconds(latencies))

	var walls, cpus []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.seconds {
		cpu := cpuTime()
		rep, err := experiments.RunCorpus(ctx, experiments.CorpusOptions{
			Dir: e.corpus, Workers: e.nproc, CacheSize: cacheSize,
		})
		res.attempted += len(circuits)
		if err != nil {
			res.failed += len(circuits)
			return nil, fmt.Errorf("RunCorpus: %w", err)
		}
		cpus = append(cpus, (cpuTime() - cpu).Seconds())
		pass := rep.Passes[0]
		walls = append(walls, pass.Wall.Seconds())
		for i, o := range outs {
			b := pass.Circuits[i]
			if b.File != o.Key || b.ApproxCNOTs != o.BestCNOTs || b.Samples != len(o.EpsSums) {
				res.problem("%s: batch pass %d gave best=%d M=%d, serial compile best=%d M=%d",
					o.Key, len(walls), b.ApproxCNOTs, b.Samples, o.BestCNOTs, len(o.EpsSums))
			}
		}
		fmt.Fprintf(e.out, "pass %d: batch %.3fs (cache %d hits / %d misses)\n",
			len(walls), pass.Wall.Seconds(), pass.CacheStats.Hits, pass.CacheStats.Misses)
	}
	res.metrics["wall_s"] = medianOf(walls)
	res.metrics["cpu_s"] = medianOf(cpus)
	res.reported["job_p50_ms"] = pctOf(latencies, 50)
	res.reported["job_p90_ms"] = pctOf(latencies, 90)
	res.metrics["cnot_reduction_pct"] = one(cnotReductionPct(outs))
	res.digest = digest(outs)
	return res, nil
}

// compileSerial compiles the circuits one at a time, in order, through
// pipeline.RunCtx on one fresh shared cache, and returns their outcomes
// plus each compile's latency in milliseconds.
func compileSerial(ctx context.Context, e env, circuits []namedCircuit) ([]outcome, []float64, error) {
	cfg := serialConfig(e.nproc, ucache.New(cacheSize, 0))
	outs := make([]outcome, len(circuits))
	lat := make([]float64, len(circuits))
	for i, nc := range circuits {
		t := time.Now()
		r, err := pipeline.RunCtx(ctx, nc.c, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", nc.name, err)
		}
		lat[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		outs[i] = outcomeOf(nc.name, r)
	}
	return outs, lat, nil
}

// corpusTraced runs the serial compile twice: untraced, then with a
// span around every public stage call and one SynthesisStage call per
// block. Both must give the same digest; the difference in wall time is
// the tracing overhead.
func corpusTraced(ctx context.Context, e env, res *result, circuits []namedCircuit) (*result, error) {
	t := time.Now()
	plain, _, err := compileSerial(ctx, e, circuits)
	res.attempted += len(circuits)
	if err != nil {
		return nil, err
	}
	untracedWall := time.Since(t)

	rec := newRecorder()
	lc := &layerCounts{}
	obj := newCountingObjective()
	lc.evals = obj.evals
	traced := make([]outcome, len(circuits))
	cfg := serialConfig(e.nproc, ucache.New(cacheSize, 0))
	cfg.Objective = obj
	t = time.Now()
	for i, nc := range circuits {
		r, err := compileTraced(ctx, rec, nc.name, nc.c, cfg, e.nproc, lc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nc.name, err)
		}
		traced[i] = outcomeOf(nc.name, r)
	}
	tracedWall := time.Since(t)
	res.attempted += len(circuits)
	for _, o := range traced {
		if err := o.check(); err != nil {
			res.problem("%v", err)
		}
	}
	res.digest = digest(traced)
	if d := digest(plain); d != res.digest {
		res.problem("traced digest %s differs from untraced %s", res.digest, d)
	}
	fmt.Fprintf(e.out, "untraced %.3fs, traced %.3fs\n", untracedWall.Seconds(), tracedWall.Seconds())
	return res, finishTrace(e, "corpus-cold", res, rec, lc, t, tracedWall, overheadPct(untracedWall, tracedWall))
}

// totalSeconds sums latencies given in milliseconds.
func totalSeconds(ms []float64) float64 {
	var s float64
	for _, x := range ms {
		s += x
	}
	return s / 1e3
}
