package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID, Parent int // Parent 0: a root span
	Name       string
	Layer      string // partition, synth, select, sim, jobs, or "" for the benchmark's own spans
	Lane       int    // Chrome trace thread row
	Start, End time.Duration
	Args       map[string]any
}

// recorder keeps spans in memory; they are written once, at the end.
// A nil *recorder records nothing, so untraced runs share the code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it. The
// returned id can parent later spans.
func (r *recorder) begin(name, layer string, parent, lane int) (id int, end func(args map[string]any)) {
	if r == nil {
		return 0, func(map[string]any) {}
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Lane: lane, Start: start, End: -1})
	r.mu.Unlock()
	return id, func(args map[string]any) {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id-1].End = end
		r.spans[id-1].Args = args
		r.mu.Unlock()
	}
}

// add records a span whose bounds were measured elsewhere (questd's job
// timestamps).
func (r *recorder) add(name, layer string, parent, lane int, start, end time.Time, args map[string]any) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Lane: lane,
		Start: start.Sub(r.t0), End: end.Sub(r.t0), Args: args})
	return id
}

// closed returns a copy of the finished spans.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerBusy sums the self-time of every span of a layer: its duration
// minus the part of it that its child spans cover.
func layerBusy(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		key := s.Layer
		if key == "" {
			kind, _, _ := strings.Cut(s.Name, " ")
			key = "bench:" + kind
		}
		out[key] += self
	}
	return out
}

// covered is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// unattributed is the part of [lo, hi] that no layer span covers: the
// benchmark's own glue, the pipeline code between public calls, and
// idle time.
func unattributed(spans []span, lo, hi time.Duration) time.Duration {
	var layer []span
	for _, s := range spans {
		if s.Layer != "" {
			layer = append(layer, s)
		}
	}
	return (hi - lo) - covered(layer, lo, hi)
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete ("X") event per span.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		cat := s.Layer
		if cat == "" {
			cat = "bench"
		}
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// printSelfTimes writes the per-layer self-time table of a traced run
// and its slowest layer spans, named with the span that caused each.
func printSelfTimes(w io.Writer, spans []span) {
	busy := layerBusy(spans)
	keys := make([]string, 0, len(busy))
	for k := range busy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "trace self-times (%d spans):\n", len(spans))
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %10.3f s\n", k, busy[k].Seconds())
	}
	byID := map[int]span{}
	var layer []span
	for _, s := range spans {
		byID[s.ID] = s
		if s.Layer != "" {
			layer = append(layer, s)
		}
	}
	sort.Slice(layer, func(i, j int) bool { return layer[i].End-layer[i].Start > layer[j].End-layer[j].Start })
	fmt.Fprintln(w, "slowest spans:")
	for _, s := range layer[:min(5, len(layer))] {
		fmt.Fprintf(w, "  %10.3f s  %s / %s\n", (s.End - s.Start).Seconds(), byID[s.Parent].Name, s.Name)
	}
}

// overheadPct is the traced figure's excess over the untraced one, in
// percent.
func overheadPct(untraced, traced time.Duration) float64 {
	return 100 * (traced - untraced).Seconds() / untraced.Seconds()
}

// finishTrace turns a traced run's spans and counters into the per-layer
// metrics, writes the Chrome trace next to the run's scratch dir, and
// prints the self-time table. The traced phase started at from and took
// traced; overhead is trace.overhead_pct. Layers the workload does not
// reach from outside report 0.
func finishTrace(e env, workload string, res *result, rec *recorder, lc *layerCounts, from time.Time, traced time.Duration, overhead float64) error {
	spans := rec.closed()
	busy := layerBusy(spans)
	set := func(name string, v float64) { res.metrics[name] = one(v) }
	set("partition.busy_s", busy["partition"].Seconds())
	set("partition.blocks", float64(lc.partitionBlocks))
	set("synth.busy_s", busy["synth"].Seconds())
	res.metrics["synth.block_p90_s"] = pctOf(lc.blockSecs, 90)
	res.metrics["synth.block_max_s"] = pctOf(lc.blockSecs, 100)
	set("synth.cache_hits", float64(lc.cache.Hits))
	set("synth.cache_misses", float64(lc.cache.Misses))
	if n := lc.cache.Hits + lc.cache.Misses; n > 0 {
		set("synth.hit_ratio", float64(lc.cache.Hits)/float64(n))
	}
	set("synth.candidates", float64(lc.candidates))
	set("synth.degraded_blocks", float64(lc.degraded))
	set("select.busy_s", busy["select"].Seconds())
	if lc.evals != nil {
		set("select.evals", float64(lc.evals.Load()))
	}
	set("select.samples", float64(lc.samples))
	set("sim.busy_s", busy["sim"].Seconds())
	set("sim.runs", float64(lc.simRuns.Load()))
	lo := from.Sub(rec.t0)
	set("trace.unattributed_s", unattributed(spans, lo, lo+traced).Seconds())
	set("trace.overhead_pct", overhead)
	for _, d := range perLayer {
		if _, ok := res.metrics[d.Name]; !ok {
			set(d.Name, 0)
		}
	}
	printSelfTimes(e.out, spans)
	path := filepath.Join(filepath.Dir(e.outDir), fmt.Sprintf("trace-%s-seed%d.json", workload, e.seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "trace written to %s\n", path)
	return nil
}
