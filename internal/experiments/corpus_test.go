package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

// miniCorpus writes a small 3-circuit corpus so the driver tests stay
// fast; the committed examples/circuits/corpus is exercised end-to-end by
// `make corpus-smoke`.
func miniCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, gen := range map[string]string{
		"tfim_5.qasm": "tfim",
		"qft_4.qasm":  "qft",
		"vqe_5.qasm":  "vqe",
	} {
		n := 5
		if gen == "qft" {
			n = 4
		}
		c, err := algos.Generate(gen, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(qasm.Write(c)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func corpusOpts(dir string) CorpusOptions {
	return CorpusOptions{
		Dir:              dir,
		Workers:          4,
		Jobs:             3,
		MaxSamples:       4,
		AnnealIterations: 100,
		CacheSize:        256,
	}
}

// TestCorpusMatchesSoloRuns is the corpus-level determinism claim: the
// concurrent, shared-pool, shared-cache driver must compile every circuit
// to exactly the same block structure, CNOT counts, sample count and
// degradations as a solo pipeline.RunCtx of that circuit with a private
// worker pool and no cache — only wall time may differ.
func TestCorpusMatchesSoloRuns(t *testing.T) {
	dir := miniCorpus(t)
	opts := corpusOpts(dir)
	rep, err := RunCorpus(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Passes[0].Circuits
	if len(got) != 3 {
		t.Fatalf("compiled %d circuits, want 3", len(got))
	}
	for _, cc := range got {
		src, err := os.ReadFile(filepath.Join(dir, cc.File+".qasm"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.RunCtx(context.Background(), c, pipeline.Config{
			MaxSamples:       opts.MaxSamples,
			AnnealIterations: opts.AnnealIterations,
			Parallelism:      opts.Workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if cc.Blocks != len(res.Blocks) || cc.CNOTs != c.CNOTCount() ||
			cc.ApproxCNOTs != res.BestCNOTs() || cc.Samples != len(res.Selected) ||
			cc.Degradations != len(res.Degradations) {
			t.Errorf("%s: corpus %+v != solo blocks=%d cnots=%d approx=%d samples=%d degradations=%d",
				cc.File, cc, len(res.Blocks), c.CNOTCount(), res.BestCNOTs(),
				len(res.Selected), len(res.Degradations))
		}
	}
}

// TestCorpusSecondPassHitsCache: a second pass over the same corpus with
// the shared cache must be served (at least partly) from it.
func TestCorpusSecondPassHitsCache(t *testing.T) {
	dir := miniCorpus(t)
	opts := corpusOpts(dir)
	opts.Passes = 2
	rep, err := RunCorpus(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 2 {
		t.Fatalf("passes = %d, want 2", len(rep.Passes))
	}
	second := rep.Passes[1].CacheStats
	if second.Hits == 0 {
		t.Fatalf("second pass had no cache hits: %+v", second)
	}
	if second.Misses != 0 {
		t.Errorf("second pass missed the cache %d times", second.Misses)
	}
	if rep.Degradations() != 0 {
		t.Errorf("corpus degraded %d blocks", rep.Degradations())
	}
}

// TestCorpusOutputLines: the greppable corpus lines corpus-smoke
// consumes must be present and well-formed.
func TestCorpusOutputLines(t *testing.T) {
	dir := miniCorpus(t)
	var buf strings.Builder
	opts := corpusOpts(dir)
	opts.Out = &buf
	if _, err := RunCorpus(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"corpus tfim_5 pass=1 ",
		"corpus qft_4 pass=1 ",
		"corpus vqe_5 pass=1 ",
		"corpus-total pass=1 ",
		"degradations=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus output missing %q:\n%s", want, out)
		}
	}
}

// TestCorpusBadInputs: an empty directory is an error.
func TestCorpusBadInputs(t *testing.T) {
	empty := t.TempDir()
	if _, err := RunCorpus(context.Background(), corpusOpts(empty)); err == nil {
		t.Error("empty corpus accepted")
	}
}
