// Command perfbench is the repository benchmark. It runs one seeded
// workload in-process through the repository's public entry points,
// checks the outputs, and prints every metric by name with its unit; the
// last line of standard output is the machine-readable result.
//
//	cd perfbench && go build -o ../.bench_build/bin/perfbench .
//	.bench_build/bin/perfbench --workload corpus-cold --seed 1 --seconds 20 --trace 0
//
// perfbench/run.sh builds and runs it from the repository root. See
// perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	nproc   int
	outDir  string // run-private scratch; trace files go in its parent
	corpus  string
	out     io.Writer // human-readable report lines
}

// result is one run's outcome.
type result struct {
	metrics   map[string]metric
	reported  map[string]metric
	attempted int
	failed    int
	problems  []string // failed output checks
	digest    string
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(ctx context.Context, e env, traced bool) (*result, error)
}

// workloads are described, with the reason for each, in README.md.
var workloads = []workload{
	{"corpus-cold", runCorpus},
	{"fig-sweep", runSweep},
	{"serve-mixed", runServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: corpus-cold, fig-sweep or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	corpus := fs.String("corpus", filepath.Join("examples", "circuits", "corpus"), "corpus directory")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data dirs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(*corpus); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: corpus: %v (run from the repository root)\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scratch := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), outDir: scratch, corpus: *corpus, out: stdout,
	}
	printHost(stdout, *name, *seed, *seconds, *trace)
	res, err := w.run(ctx, e, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	// The data dirs are scratch; a trace file is kept one level up.
	os.RemoveAll(scratch)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	} else {
		res.metrics["peak_rss_mb"] = one(peakRSSMB())
	}
	if res.attempted > 0 {
		res.reported["failed_share"] = one(float64(res.failed) / float64(res.attempted))
	}
	for _, d := range defs {
		if _, ok := res.metrics[d.Name]; !ok {
			res.problem("metric %s was not measured", d.Name)
		}
	}
	printReport(stdout, defs, res)
	return printResult(stdout, defs, res)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printHost records the host and the run's settings.
func printHost(w io.Writer, name string, seed int64, seconds, trace int) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the user plus system CPU time the process has used so far
// (0 where getrusage is unavailable).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printReport writes the run record: every metric with its unit and the
// spread of the within-run samples behind it, the reported figures, the
// output digest and the checks.
func printReport(w io.Writer, defs []metricDef, r *result) {
	fmt.Fprintln(w, "metrics:")
	for _, d := range defs {
		m := r.metrics[d.Name]
		fmt.Fprintf(w, "  %-24s %14.6g %-6s %s\n", d.Name, m.Value, d.Unit, summary(m))
	}
	for _, d := range reported {
		if m, ok := r.reported[d.Name]; ok {
			fmt.Fprintf(w, "  %-24s %14.6g %-6s (reported) %s\n", d.Name, m.Value, d.Unit, summary(m))
		}
	}
	fmt.Fprintf(w, "digest %s attempted=%d failed=%d\n", r.digest, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

// printResult writes the final JSON line and returns the exit code.
func printResult(w io.Writer, defs []metricDef, r *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{r.metrics[d.Name].Value, d.Unit}
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}
