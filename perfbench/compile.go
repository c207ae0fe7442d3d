package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/ucache"
)

// layerCounts accumulates the traced run's per-layer counters.
type layerCounts struct {
	partitionBlocks int
	candidates      int
	degraded        int
	samples         int
	blockSecs       []float64
	cache           ucache.Stats
	evals           *atomic.Int64 // nil when selection is not counted
	simRuns         atomic.Int64
}

// synthesizeTraced is the traced form of PartitionStage → SynthesisStage:
// it partitions c, then synthesizes every block through its own
// SynthesisStage call on a one-block PartitionArtifact carrying the
// circuit's threshold, fanned out over `lanes` goroutines, with a span
// around each call. Synthesis is seeded by block content and prunes
// against the artifact's threshold, so the assembled artifact equals the
// one SynthesisStage builds for the whole circuit.
func synthesizeTraced(ctx context.Context, rec *recorder, parent int, c *circuit.Circuit, cfg pipeline.Config, lanes int, lc *layerCounts) (*pipeline.SynthesisArtifact, error) {
	_, endPart := rec.begin("PartitionStage", "partition", parent, 0)
	pa, err := pipeline.PartitionStage(cfg).Run(ctx, c)
	if err != nil {
		return nil, err
	}
	endPart(map[string]any{"blocks": len(pa.Blocks)})
	lc.partitionBlocks += len(pa.Blocks)

	var before ucache.Stats
	if cfg.SynthCache != nil {
		before = cfg.SynthCache.Stats()
	}
	parts := make([]*pipeline.SynthesisArtifact, len(pa.Blocks))
	secs := make([]float64, len(pa.Blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pa.Blocks) || ctx.Err() != nil {
					return
				}
				one := &pipeline.PartitionArtifact{
					Original:  c,
					Blocks:    []partition.Block{pa.Blocks[i]},
					Threshold: pa.Threshold,
					Key:       pa.Key,
				}
				_, end := rec.begin(fmt.Sprintf("SynthesisStage block %d", i), "synth", parent, 1+lane)
				t := time.Now()
				sa, err := pipeline.SynthesisStage(cfg).Run(ctx, one)
				secs[i] = time.Since(t).Seconds()
				if err != nil {
					errs[lane] = fmt.Errorf("block %d: %w", i, err)
					return
				}
				end(map[string]any{"block": i, "qubits": len(pa.Blocks[i].Qubits),
					"cnots": pa.Blocks[i].Circuit.CNOTCount(), "candidates": len(sa.Blocks[0].Candidates)})
				parts[i] = sa
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	art := &pipeline.SynthesisArtifact{
		Partition: pa,
		Blocks:    make([]pipeline.BlockApproximations, len(parts)),
		Cfg:       parts[0].Cfg,
		Key:       parts[0].Key,
	}
	for i, p := range parts {
		art.Blocks[i] = p.Blocks[0]
		lc.candidates += len(p.Blocks[0].Candidates)
		for _, d := range p.Degradations {
			d.Block = i
			art.Degradations = append(art.Degradations, d)
		}
	}
	lc.degraded += len(art.Degradations)
	lc.blockSecs = append(lc.blockSecs, secs...)
	if cfg.SynthCache != nil {
		art.CacheStats = cfg.SynthCache.Stats().Sub(before)
		lc.cache.Hits += art.CacheStats.Hits
		lc.cache.Misses += art.CacheStats.Misses
	}
	return art, nil
}

// compileTraced compiles c one public stage call at a time with spans
// around each: the traced counterpart of pipeline.RunCtx's staged path.
func compileTraced(ctx context.Context, rec *recorder, name string, c *circuit.Circuit, cfg pipeline.Config, lanes int, lc *layerCounts) (*pipeline.Result, error) {
	root, endRoot := rec.begin("compile "+name, "", 0, 0)
	art, err := synthesizeTraced(ctx, rec, root, c, cfg, lanes, lc)
	if err != nil {
		return nil, err
	}
	_, endSel := rec.begin("SelectionStage", "select", root, 0)
	sel, err := pipeline.SelectionStage(cfg).Run(ctx, art)
	if err != nil {
		return nil, err
	}
	endSel(map[string]any{"samples": len(sel.Selected)})
	lc.samples += len(sel.Selected)
	endRoot(map[string]any{"circuit": name})
	return sel.Result(), nil
}

// outcome is what the digest covers for one compiled circuit (or sweep
// point or job): best CNOTs, M, and every selected approximation's Σε.
type outcome struct {
	Key       string
	OrigCNOTs int
	BestCNOTs int
	EpsSums   []float64
	Threshold float64
}

func outcomeOf(key string, res *pipeline.Result) outcome {
	o := outcome{Key: key, OrigCNOTs: res.Original.CNOTCount(), BestCNOTs: res.BestCNOTs(), Threshold: res.Threshold}
	for _, a := range res.Selected {
		o.EpsSums = append(o.EpsSums, a.EpsilonSum)
	}
	return o
}

// check verifies that the compile selected at least one approximation
// and that every selected approximation stays within the threshold.
func (o outcome) check() error {
	if len(o.EpsSums) == 0 {
		return fmt.Errorf("%s: no approximation selected", o.Key)
	}
	for i, e := range o.EpsSums {
		if e > o.Threshold+1e-12 {
			return fmt.Errorf("%s: approximation %d has Σε %g > threshold %g", o.Key, i, e, o.Threshold)
		}
	}
	return nil
}

// String is the outcome as the digest hashes it.
func (o outcome) String() string {
	s := fmt.Sprintf("%s best=%d m=%d", o.Key, o.BestCNOTs, len(o.EpsSums))
	for _, e := range o.EpsSums {
		s += fmt.Sprintf(" %x", math.Float64bits(e))
	}
	return s
}

// hasTiedCandidates reports whether a block of the artifact holds two
// different candidate circuits with the same CNOT count and the same
// distance bits. Synthesis returns such ties in an unspecified order
// and selection picks by index, so two syntheses of the same input may
// select differently (known defect 2 in README.md). Without ties the
// candidate lists, and so the selections, are fully determined.
func hasTiedCandidates(blocks []pipeline.BlockApproximations) bool {
	for _, b := range blocks {
		cs := b.Candidates
		for i := 1; i < len(cs); i++ {
			if cs[i].CNOTs == cs[i-1].CNOTs &&
				math.Float64bits(cs[i].Distance) == math.Float64bits(cs[i-1].Distance) &&
				qasm.Write(cs[i].Circuit) != qasm.Write(cs[i-1].Circuit) {
				return true
			}
		}
	}
	return false
}

// digest hashes the outcomes in key order, so it does not depend on the
// order the work ran in.
func digest(outs []outcome) string {
	s := append([]outcome(nil), outs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Key < s[j].Key })
	h := sha256.New()
	for _, o := range s {
		fmt.Fprintln(h, o)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cnotReductionPct is Σ(orig − best) / Σorig over the outcomes, in %.
func cnotReductionPct(outs []outcome) float64 {
	var orig, saved int
	for _, o := range outs {
		orig += o.OrigCNOTs
		saved += o.OrigCNOTs - o.BestCNOTs
	}
	if orig == 0 {
		return 0
	}
	return 100 * float64(saved) / float64(orig)
}
