package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// lists the same names; a self-test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the compiler or of questd sees.
// Every workload prints every one of them with --trace 0 (see README.md
// for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cnot_reduction_pct", "%", "higher"},
}

// perLayer are the traced run's metrics (--trace 1). A layer a workload
// does not reach from outside reports 0.
var perLayer = []metricDef{
	{"partition.busy_s", "s", "lower"},
	{"partition.blocks", "count", "lower"},
	{"synth.busy_s", "s", "lower"},
	{"synth.block_p90_s", "s", "lower"},
	{"synth.block_max_s", "s", "lower"},
	{"synth.cache_hits", "count", "higher"},
	{"synth.cache_misses", "count", "lower"},
	{"synth.hit_ratio", "ratio", "higher"},
	{"synth.candidates", "count", "higher"},
	{"synth.degraded_blocks", "count", "lower"},
	{"synth.tie_reorders", "count", "lower"},
	{"select.busy_s", "s", "lower"},
	{"select.evals", "count", "lower"},
	{"select.samples", "count", "higher"},
	{"sim.busy_s", "s", "lower"},
	{"sim.runs", "count", "lower"},
	{"jobs.submit_ms_p50", "ms", "lower"},
	{"jobs.queue_wait_ms_p50", "ms", "lower"},
	{"jobs.queue_wait_ms_p90", "ms", "lower"},
	{"jobs.run_ms_p50", "ms", "lower"},
	{"jobs.run_ms_p90", "ms", "lower"},
	{"jobs.artifact_hits", "count", "higher"},
	{"jobs.artifact_misses", "count", "lower"},
	{"jobs.retried", "count", "lower"},
	{"jobs.shed", "count", "lower"},
	{"jobs.queue_depth_max", "count", "lower"},
	{"gen.lag_ms_max", "ms", "lower"},
	{"trace.unattributed_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// reported are figures printed in the run record but not in the result
// line. An end-to-end metric must be defined, non-zero and steady within
// its bound on every workload: tvd_mean and slo_share do not apply to
// every workload, failed_share is 0 on a healthy run (the result's
// failed/attempted carry it), and the job latency percentiles are not
// steady on serve-mixed (see README.md).
var reported = []metricDef{
	{"failed_share", "ratio", "lower"},
	{"tvd_mean", "ratio", "lower"},
	{"slo_share", "ratio", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
}

// metric is one measured value plus the within-run samples it
// summarises (the repeats a median was taken over, or the latencies a
// percentile was read from). A single measurement has one sample.
type metric struct {
	Value   float64
	Samples []float64
}

func one(v float64) metric { return metric{Value: v, Samples: []float64{v}} }

// medianOf returns the median of xs as a metric.
func medianOf(xs []float64) metric { return metric{Value: percentile(xs, 50), Samples: xs} }

// pctOf returns the p-th percentile of xs as a metric.
func pctOf(xs []float64, p float64) metric { return metric{Value: percentile(xs, p), Samples: xs} }

// setupSamples times a millisecond-scale set-up: after one untimed
// warm-up, it returns n samples, each the mean of k consecutive
// set-ups, so a sample covers enough work that timer and scheduler
// noise average out; setup_s is their median. Each sample starts after
// a full garbage collection, so none pays for the previous one's
// garbage. Each set-up may return a clean-up, which runs untimed after
// its sample.
func setupSamples(n, k int, setup func() (func() error, error)) ([]float64, error) {
	var out []float64
	for i := -1; i < n; i++ {
		var cleanups []func() error
		cleanup := func() error {
			var first error
			for _, done := range cleanups {
				if done == nil {
					continue
				}
				if err := done(); first == nil {
					first = err
				}
			}
			return first
		}
		runtime.GC()
		t := time.Now()
		for range k {
			done, err := setup()
			if err != nil {
				cleanup()
				return nil, err
			}
			cleanups = append(cleanups, done)
		}
		if i >= 0 {
			out = append(out, time.Since(t).Seconds()/float64(k))
		}
		if err := cleanup(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// percentile is the linearly interpolated p-th percentile (0 for no
// samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1 and Q3 by the rule Python's
// statistics.quantiles(xs, n=4) uses (method "exclusive"), so the
// spreads printed here match the ones computed over whole runs. With
// fewer than two samples both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// summary formats a metric's samples for the run record.
func summary(m metric) string {
	if len(m.Samples) == 0 {
		return "n=0"
	}
	lo, hi := m.Samples[0], m.Samples[0]
	for _, x := range m.Samples {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	q1, q3 := quartiles(m.Samples)
	return fmt.Sprintf("n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g",
		len(m.Samples), percentile(m.Samples, 50), q1, q3, lo, hi)
}
