package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

// TestScheduleDeterministic pins that a seed fixes the arrival schedule
// and the job mix, that another seed moves only the order and the
// arrival times, and that the mix has the repeats it is meant to have.
func TestScheduleDeterministic(t *testing.T) {
	catalog, err := serveCatalog()
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	a := serveSchedule(7, jobMix(catalog, n), serveRate)
	b := serveSchedule(7, jobMix(catalog, n), serveRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	c := serveSchedule(8, jobMix(catalog, n), serveRate)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if len(a) != n || len(c) != n {
		t.Fatalf("schedules have %d and %d jobs, want %d", len(a), len(c), n)
	}
	multiset := func(s []arrival) map[string]int {
		m := map[string]int{}
		for _, x := range s {
			m[x.Job.key()]++
		}
		return m
	}
	if !reflect.DeepEqual(multiset(a), multiset(c)) {
		t.Error("the job mix depends on the seed; only order and arrival times should")
	}
	rate := serveRate
	span := time.Duration(float64(n) / rate * float64(time.Second))
	for i, x := range a {
		if x.Due < 0 || x.Due > span+20*time.Millisecond || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v: not sorted within [0, %v]", i, x.Due, span)
		}
	}

	artifacts := map[string]bool{}
	backends := 0
	for _, x := range a {
		artifacts[fmt.Sprint(x.Job.Circuit, x.Job.Epsilon, x.Job.Seed)] = true
		if x.Job.Backend != "" {
			backends++
		}
	}
	if repeats := n - len(artifacts); repeats < n*2/5 || repeats > n*3/5 {
		t.Errorf("%d of %d jobs repeat an artifact, want about half", repeats, n)
	}
	if backends < n/5 || backends > n*2/5 {
		t.Errorf("%d of %d jobs ask for backend statistics, want about a third", backends, n)
	}
	twins := 0
	for _, g := range jobMix(catalog, n) {
		if len(g) == 2 {
			twins++
		}
	}
	if twins == 0 {
		t.Error("no job is submitted again while its artifact is in flight")
	}
}

var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricDefinitions pins that every metric has a valid, unique name
// and a unit, and that BENCHMARK.json declares exactly the metrics the
// benchmark prints.
func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer, reported} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, metricName)
			}
			if seen[d.Name] {
				t.Errorf("metric %s is defined twice", d.Name)
			}
			seen[d.Name] = true
			if !unitPattern.MatchString(d.Unit) {
				t.Errorf("metric %s has unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", spec.PerLayer, perLayer)
	}
	var declared, runnable []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		runnable = append(runnable, w.name)
	}
	if !reflect.DeepEqual(declared, runnable) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", declared, runnable)
	}
}

// TestCountingObjective pins that counting objective evaluations
// changes neither the selection key nor the selection, and that the
// count repeats exactly.
func TestCountingObjective(t *testing.T) {
	c, err := algos.Generate("tfim", 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := pipeline.Config{Parallelism: 2}
	art, err := pipeline.Synthesize(ctx, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pipeline.SelectionStage(cfg).Run(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for range 2 {
		obj := newCountingObjective()
		counted := cfg
		counted.Objective = obj
		sel, err := pipeline.SelectionStage(counted).Run(ctx, art)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Key != plain.Key {
			t.Errorf("counted key %q, plain %q", sel.Key, plain.Key)
		}
		if len(sel.Selected) != len(plain.Selected) {
			t.Fatalf("counted run selected %d, plain %d", len(sel.Selected), len(plain.Selected))
		}
		for i, a := range sel.Selected {
			p := plain.Selected[i]
			if !reflect.DeepEqual(a.Choice, p.Choice) || a.CNOTs != p.CNOTs ||
				math.Float64bits(a.EpsilonSum) != math.Float64bits(p.EpsilonSum) {
				t.Errorf("approximation %d differs when counted", i)
			}
		}
		counts = append(counts, obj.evals.Load())
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Errorf("evaluation counts %v: want equal and non-zero", counts)
	}
}

// TestQuartilesMatchPython pins the quartile rule against values from
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if p := percentile([]float64{1, 2, 3, 4, 5}, 90); math.Abs(p-4.6) > 1e-12 {
		t.Errorf("p90 = %g, want 4.6", p)
	}
}

// TestHasTiedCandidates pins what counts as a tie: two different
// circuits with equal CNOT count and bit-equal distance. Equal circuits
// and distances that differ in the last bit are not ties.
func TestHasTiedCandidates(t *testing.T) {
	x, h := circuit.New(1), circuit.New(1)
	x.X(0)
	h.H(0)
	d := 0.25
	for _, tc := range []struct {
		name  string
		cands []synth.Candidate
		want  bool
	}{
		{"tie", []synth.Candidate{{Circuit: x, Distance: d}, {Circuit: h, Distance: d}}, true},
		{"same circuit", []synth.Candidate{{Circuit: x, Distance: d}, {Circuit: x, Distance: d}}, false},
		{"next float", []synth.Candidate{{Circuit: x, Distance: d}, {Circuit: h, Distance: math.Nextafter(d, 1)}}, false},
		{"other CNOT count", []synth.Candidate{{Circuit: x, Distance: d}, {Circuit: h, Distance: d, CNOTs: 1}}, false},
	} {
		blocks := []pipeline.BlockApproximations{{}, {Candidates: tc.cands}}
		if got := hasTiedCandidates(blocks); got != tc.want {
			t.Errorf("%s: hasTiedCandidates = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSpanAccounting pins self-time and coverage arithmetic, and that
// the Chrome trace is valid JSON with one event per span.
func TestSpanAccounting(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "compile x", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "PartitionStage", Layer: "partition", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Name: "block 0", Layer: "synth", Start: ms(10), End: ms(70)},
		{ID: 4, Parent: 1, Name: "block 1", Layer: "synth", Start: ms(20), End: ms(60)},
		{ID: 5, Parent: 1, Name: "SelectionStage", Layer: "select", Start: ms(80), End: ms(95)},
	}
	busy := layerBusy(spans)
	want := map[string]time.Duration{
		"bench:compile": ms(100 - 10 - 60 - 15),
		"partition":     ms(10),
		"synth":         ms(100),
		"select":        ms(15),
	}
	if !reflect.DeepEqual(busy, want) {
		t.Errorf("self-times %v, want %v", busy, want)
	}
	if u := unattributed(spans, 0, ms(100)); u != ms(15) {
		t.Errorf("unattributed %v, want 15ms", u)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Errorf("%d trace events, want %d", len(doc.TraceEvents), len(spans))
	}
}
