package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algos"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/serve"
)

const (
	// serveRate is the open loop's arrival rate, about half the burst
	// throughput of a 2-CPU host at the slower of its speeds (see
	// README.md).
	serveRate = 14.0 // jobs/s
	// serveMinJobs keeps at least ten latencies beyond p90 in a run.
	serveMinJobs = 100
	// serveSLO is the latency limit behind slo_share, from the due time.
	serveSLO = 2 * time.Second
	// serveDrain bounds how long the load may run past its last arrival.
	serveDrain = 60 * time.Second
	// mixSeed fixes the multiset of jobs, so quality figures and the
	// digest do not depend on --seed; --seed orders the jobs and draws
	// their arrival times.
	mixSeed = 20220228
)

// jobSpec is one submission. Jobs with equal QASM, Epsilon and Seed
// share a synthesis artifact.
type jobSpec struct {
	Circuit string
	QASM    string
	Epsilon float64
	Seed    int64
	Backend string
}

func (j jobSpec) key() string {
	return fmt.Sprintf("%s eps=%g seed=%d backend=%s", j.Circuit, j.Epsilon, j.Seed, j.Backend)
}

// arrival is a job and its due time, relative to the start of the load.
type arrival struct {
	Due time.Duration
	Job jobSpec
}

// serveMaxCNOTs leaves the two Trotter circuits with 48 and 72 CNOTs
// out of the catalog: one fresh compile of either holds both CPUs of a
// 2-CPU host for 1–3 s, and with them in the mix job_p50_ms moved about
// 3× between seeds (see README.md).
const serveMaxCNOTs = 24

// serveCatalog is the Table-1 circuits at 4 qubits with at most
// serveMaxCNOTs CNOTs, in algos.Names order. jobMix ranks their
// popularity by this order. Nothing measures which circuits users
// submit most, so the ranking is a fixed assumption, not data.
func serveCatalog() ([]namedCircuit, error) {
	var out []namedCircuit
	for _, name := range algos.Names() {
		c, err := algos.Generate(name, 4)
		if err != nil {
			return nil, err
		}
		if c.CNOTCount() <= serveMaxCNOTs {
			out = append(out, namedCircuit{fmt.Sprintf("%s_%d", name, c.NumQubits), c})
		}
	}
	return out, nil
}

// jobMix draws n jobs in groups. Circuits follow a Zipf-like
// popularity (weight 1/rank, ranked in catalog order); ε is 0.05 or
// 0.1; one job in three asks for backend statistics on noisy:0.005.
// About half the jobs reuse the pipeline seed of an earlier job with the
// same circuit and ε, so they repeat its artifact (Reselect only); the
// rest use a new seed and compile from scratch. One fresh job in four is
// submitted twice at once — two clients asking for the same new circuit
// — so repeats also arrive while their artifact is still being built.
func jobMix(catalog []namedCircuit, n int) [][]jobSpec {
	rng := rand.New(rand.NewSource(mixSeed))
	var total float64
	for r := range catalog {
		total += 1 / float64(r+1)
	}
	pick := func() int {
		x := rng.Float64() * total
		for r := range catalog {
			x -= 1 / float64(r+1)
			if x < 0 {
				return r
			}
		}
		return len(catalog) - 1
	}
	backend := func() string {
		if rng.Intn(3) == 0 {
			return "noisy:0.005"
		}
		return ""
	}
	seeds := map[string][]int64{}
	var next int64 = 1
	var groups [][]jobSpec
	for left := n; left > 0; {
		c := catalog[pick()]
		eps := []float64{0.05, 0.1}[rng.Intn(2)]
		k := fmt.Sprintf("%s/%g", c.name, eps)
		j := jobSpec{Circuit: c.name, QASM: qasm.Write(c.c), Epsilon: eps, Backend: backend()}
		if prev := seeds[k]; len(prev) > 0 && rng.Intn(2) == 0 {
			j.Seed = prev[rng.Intn(len(prev))]
			groups = append(groups, []jobSpec{j})
			left--
			continue
		}
		j.Seed = next
		next++
		seeds[k] = append(seeds[k], j.Seed)
		g := []jobSpec{j}
		if left >= 2 && rng.Intn(4) == 0 {
			dup := j
			dup.Backend = backend()
			g = append(g, dup)
		}
		groups = append(groups, g)
		left -= len(g)
	}
	return groups
}

// serveSchedule orders the groups by the seed and gives them Poisson
// arrivals: one time per group drawn uniformly over n/rate seconds (a
// Poisson process conditioned on its count, so every run offers the
// same load over the same span). A group's second job follows its first
// within 20 ms.
func serveSchedule(seed int64, groups [][]jobSpec, rate float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	span := float64(n) / rate
	dues := make([]float64, len(groups))
	for i := range dues {
		dues[i] = rng.Float64() * span
	}
	sort.Float64s(dues)
	var out []arrival
	for i, gi := range rng.Perm(len(groups)) {
		due := time.Duration(dues[i] * float64(time.Second))
		for k, j := range groups[gi] {
			if k > 0 {
				due += time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
			}
			out = append(out, arrival{due, j})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// questd is an in-process questd: a jobs.Manager behind serve's
// handler on a loopback listener.
type questd struct {
	m    *jobs.Manager
	hs   *http.Server
	wg   sync.WaitGroup // the Serve goroutine
	base string
	dir  string
}

func startQuestd(ctx context.Context, client *http.Client, dir string, pc pipeline.Config) (*questd, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := jobs.Open(jobs.Options{Dir: dir, Pipeline: pc})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close(ctx)
		return nil, err
	}
	q := &questd{m: m, hs: &http.Server{Handler: serve.New(m).Handler()},
		base: "http://" + ln.Addr().String(), dir: dir}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		q.hs.Serve(ln)
	}()
	if _, err := health(ctx, client, q.base); err != nil {
		q.stop(ctx)
		return nil, err
	}
	return q, nil
}

// stop shuts the listener, drains the manager and removes the data dir.
func (q *questd) stop(ctx context.Context) error {
	err := q.hs.Shutdown(ctx)
	q.wg.Wait()
	if cerr := q.m.Close(ctx); err == nil {
		err = cerr
	}
	os.RemoveAll(q.dir)
	return err
}

func health(ctx context.Context, client *http.Client, base string) (jobs.Stats, error) {
	var st jobs.Stats
	err := getJSON(ctx, client, base+"/healthz", &st)
	return st, err
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submitted is the client's record of one arrival.
type submitted struct {
	due, sent time.Time
	rtt       time.Duration
	id        string
	status    int
	err       error
}

// loadResult is what one open-loop load leaves behind.
type loadResult struct {
	start    time.Time
	subs     []submitted
	jobs     []jobs.Job // by arrival; zero for a job never accepted
	payloads []*jobs.ResultPayload
	final    jobs.Stats
	depthMax int
	timedOut bool
	cpu      time.Duration // process CPU time from the start until every job was terminal
}

// offerLoad submits the schedule as an open loop: max(1, nproc-1)
// submitter goroutines send each job at its due time whatever the state
// of earlier jobs, and one monitor polls /healthz until every accepted
// job is terminal. The client holds at most nproc connections.
func offerLoad(ctx context.Context, client *http.Client, base string, sched []arrival, nproc int) (*loadResult, error) {
	lr := &loadResult{subs: make([]submitted, len(sched)), start: time.Now().Add(50 * time.Millisecond)}
	cpu := cpuTime()
	var next atomic.Int64
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for range max(1, nproc-1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := lr.start.Add(sched[i].Due)
				select {
				case <-time.After(time.Until(due)):
				case <-ctx.Done():
					return
				}
				s := submitted{due: due, sent: time.Now()}
				s.id, s.status, s.err = submitJob(ctx, client, base, sched[i].Job)
				s.rtt = time.Since(s.sent)
				if s.status == http.StatusAccepted {
					accepted.Add(1)
				}
				lr.subs[i] = s
			}
		}()
	}
	submittersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(submittersDone)
	}()

	deadline := lr.start.Add(sched[len(sched)-1].Due + serveDrain)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	finished := false
	for !finished {
		select {
		case <-tick.C:
		case <-ctx.Done():
			<-submittersDone
			return nil, ctx.Err()
		}
		st, err := health(ctx, client, base)
		if err != nil {
			<-submittersDone
			return nil, err
		}
		lr.depthMax = max(lr.depthMax, st.QueueDepth)
		select {
		case <-submittersDone:
			c := st.Counters
			finished = c.Done+c.Failed+c.Cancelled >= uint64(accepted.Load())
		default:
		}
		if !finished && time.Now().After(deadline) {
			lr.timedOut = true
			<-submittersDone
			finished = true
		}
	}
	lr.cpu = cpuTime() - cpu
	<-submittersDone

	lr.jobs = make([]jobs.Job, len(sched))
	lr.payloads = make([]*jobs.ResultPayload, len(sched))
	for i, s := range lr.subs {
		if s.status != http.StatusAccepted {
			continue
		}
		if err := getJSON(ctx, client, base+"/v1/jobs/"+s.id, &lr.jobs[i]); err != nil {
			return nil, err
		}
		if lr.jobs[i].State != jobs.Done {
			continue
		}
		var p jobs.ResultPayload
		if err := getJSON(ctx, client, base+"/v1/jobs/"+s.id+"/result", &p); err != nil {
			return nil, err
		}
		lr.payloads[i] = &p
	}
	final, err := health(ctx, client, base)
	if err != nil {
		return nil, err
	}
	lr.final = final
	return lr, nil
}

func submitJob(ctx context.Context, client *http.Client, base string, j jobSpec) (id string, status int, err error) {
	body, err := json.Marshal(serve.SubmitRequest{QASM: j.QASM, Params: jobs.Params{
		Epsilon: j.Epsilon, Seed: j.Seed, Backend: j.Backend,
	}})
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var job jobs.Job
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&job)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return job.ID, resp.StatusCode, err
}

// serveRun is one started questd plus the load offered to it.
type serveRun struct {
	sched []arrival
	lr    *loadResult
	wall  time.Duration   // schedule start to last completion
	outs  []*outcome      // by arrival, set by score; nil for a job without a result
	tied  map[string]bool // artifact keys with tied candidates; nil unless asked for
}

// runServe is the serve-mixed workload: set-up opens questd with default
// options on a fresh data dir and waits for /healthz (setup_s, timed by
// setupSamples). The load goes to one more server started the same way.
// The timed phase is one open-loop load.
func runServe(ctx context.Context, e env, traced bool) (*result, error) {
	res := &result{metrics: map[string]metric{}, reported: map[string]metric{}}
	catalog, err := serveCatalog()
	if err != nil {
		return nil, err
	}
	n := max(serveMinJobs, int(serveRate*e.seconds.Seconds()+0.5))
	sched := serveSchedule(e.seed, jobMix(catalog, n), serveRate)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc}}
	defer client.CloseIdleConnections()

	if traced {
		return serveTraced(ctx, e, res, client, sched)
	}
	starts := 0
	setups, err := setupSamples(9, 10, func() (func() error, error) {
		starts++
		s, err := startQuestd(ctx, client, filepath.Join(e.outDir, fmt.Sprintf("questd-%d", starts)), pipeline.Config{})
		if err != nil {
			return nil, err
		}
		return func() error { return s.stop(ctx) }, nil
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = medianOf(setups)
	q, err := startQuestd(ctx, client, filepath.Join(e.outDir, "questd-load"), pipeline.Config{})
	if err != nil {
		return nil, err
	}
	sr, err := runLoad(ctx, e, q, client, sched, false)
	if err != nil {
		return nil, err
	}
	lat := sr.score(res)
	res.metrics["wall_s"] = one(sr.wall.Seconds())
	res.metrics["cpu_s"] = one(sr.lr.cpu.Seconds())
	res.reported["job_p50_ms"] = pctOf(lat, 50)
	res.reported["job_p90_ms"] = pctOf(lat, 90)
	fmt.Fprintf(e.out, "gen.lag_ms_max %.3f, jobs.retried %d, artifact hits/misses %d/%d\n",
		sr.lagMaxMs(), sr.lr.final.Counters.Retried, sr.lr.final.Counters.ArtifactHits, sr.lr.final.Counters.ArtifactMisses)
	return res, nil
}

// runLoad offers the schedule to q and stops q afterwards. With
// findTies it first reads which of the load's artifacts have tied
// candidates from q's data dir.
func runLoad(ctx context.Context, e env, q *questd, client *http.Client, sched []arrival, findTies bool) (*serveRun, error) {
	lr, err := offerLoad(ctx, client, q.base, sched, e.nproc)
	var tied map[string]bool
	if err == nil && findTies {
		tied, err = tiedArtifacts(q.dir, lr.jobs)
	}
	// Drain questd even when ctx is already cancelled.
	stopCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	if serr := q.stop(stopCtx); err == nil && serr != nil {
		err = fmt.Errorf("stop questd: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	sr := &serveRun{sched: sched, lr: lr, tied: tied}
	for _, j := range lr.jobs {
		if end := j.FinishedAt.Sub(lr.start); !j.FinishedAt.IsZero() && end > sr.wall {
			sr.wall = end
		}
	}
	return sr, nil
}

// tiedArtifacts loads every artifact the jobs used from questd's data
// dir (dir/artifacts/art-<key>.json) and returns the keys of those with
// tied candidates.
func tiedArtifacts(dir string, js []jobs.Job) (map[string]bool, error) {
	tied := map[string]bool{}
	for _, j := range js {
		if j.ArtifactKey == "" {
			continue
		}
		if _, seen := tied[j.ArtifactKey]; seen {
			continue
		}
		f, err := os.Open(filepath.Join(dir, "artifacts", "art-"+j.ArtifactKey+".json"))
		if err != nil {
			return nil, err
		}
		art, err := pipeline.LoadSynthesis(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("artifact %s: %w", j.ArtifactKey, err)
		}
		tied[j.ArtifactKey] = hasTiedCandidates(art.Blocks)
	}
	return tied, nil
}

// score checks the served results, fills the quality figures, digest
// and failure counts, and returns the latencies (ms, from the due time)
// of the jobs that completed.
func (sr *serveRun) score(res *result) []float64 {
	var lat []float64
	var outs []outcome
	var tvd float64
	var tvdN, inSLO int
	res.attempted += len(sr.sched)
	sr.outs = make([]*outcome, len(sr.sched))
	for i, a := range sr.sched {
		s, j, p := sr.lr.subs[i], sr.lr.jobs[i], sr.lr.payloads[i]
		if why := s.failure(j, p); why != "" {
			res.failed++
			res.problem("job %d (%s): %s", i, a.Job.key(), why)
			continue
		}
		l := j.FinishedAt.Sub(s.due)
		lat = append(lat, float64(l.Nanoseconds())/1e6)
		if l <= serveSLO {
			inSLO++
		}
		o := outcome{Key: a.Job.key(), OrigCNOTs: p.OriginalCNOTs, BestCNOTs: p.BestCNOTs, Threshold: p.Threshold}
		for _, sel := range p.Selected {
			o.EpsSums = append(o.EpsSums, sel.EpsilonSum)
		}
		if err := o.check(); err != nil {
			res.problem("job %s: %v", j.ID, err)
		}
		outs = append(outs, o)
		sr.outs[i] = &o
		if p.Stats != nil {
			tvd += p.Stats.TVD
			tvdN++
		} else if a.Job.Backend != "" {
			res.problem("job %s asked for %s statistics and got none", j.ID, a.Job.Backend)
		}
	}
	if sr.lr.timedOut {
		res.problem("load did not drain within %v of the last arrival", serveDrain)
	}
	if len(outs) == 0 {
		res.problem("no job completed")
		return lat
	}
	res.metrics["cnot_reduction_pct"] = one(cnotReductionPct(outs))
	res.digest = digest(outs)
	res.reported["slo_share"] = one(float64(inSLO) / float64(len(sr.sched)))
	if tvdN > 0 {
		res.reported["tvd_mean"] = one(tvd / float64(tvdN))
	}
	return lat
}

// failure says why an arrival did not end in a served result, or
// returns "" when it did. Every job must succeed: a submit error, a shed
// or any other non-202 status, and a job not Done all fail the run.
func (s submitted) failure(j jobs.Job, p *jobs.ResultPayload) string {
	switch {
	case s.err != nil:
		return fmt.Sprintf("submit: %v", s.err)
	case s.status != http.StatusAccepted:
		return fmt.Sprintf("submit returned HTTP %d", s.status)
	case j.State != jobs.Done:
		return fmt.Sprintf("job %s ended %s: %s", s.id, j.State, j.Error)
	case p == nil:
		return fmt.Sprintf("job %s is done but served no result", s.id)
	}
	return ""
}

func (sr *serveRun) lagMaxMs() float64 {
	var m time.Duration
	for _, s := range sr.lr.subs {
		m = max(m, s.sent.Sub(s.due))
	}
	return float64(m.Nanoseconds()) / 1e6
}

// serveTraced offers the load twice, each to a fresh questd: untraced,
// then with spans for every job's submit round-trip, queue wait and run
// (from questd's job timestamps) and an objective-counting base
// pipeline Config. The two loads must give every job the same result
// (compareLoads); the difference in CPU time is the tracing overhead.
func serveTraced(ctx context.Context, e env, res *result, client *http.Client, sched []arrival) (*result, error) {
	q, err := startQuestd(ctx, client, filepath.Join(e.outDir, "questd-untraced"), pipeline.Config{})
	if err != nil {
		return nil, err
	}
	plain, err := runLoad(ctx, e, q, client, sched, true)
	if err != nil {
		return nil, err
	}
	untraced := &result{metrics: map[string]metric{}, reported: map[string]metric{}}
	plain.score(untraced)

	obj := newCountingObjective()
	q, err = startQuestd(ctx, client, filepath.Join(e.outDir, "questd-traced"), pipeline.Config{Objective: obj})
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	sr, err := runLoad(ctx, e, q, client, sched, true)
	if err != nil {
		return nil, err
	}
	sr.score(res)
	res.metrics["synth.tie_reorders"] = one(float64(compareLoads(e.out, res, plain, sr)))
	res.problems = append(res.problems, untraced.problems...)
	res.attempted += untraced.attempted
	res.failed += untraced.failed

	var submit, wait, run []float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for i, s := range sr.lr.subs {
		j := sr.lr.jobs[i]
		root := rec.add("job "+sched[i].Job.key(), "", 0, i+1, s.due, maxTime(s.due, j.FinishedAt), map[string]any{"id": s.id, "status": s.status})
		rec.add("POST /v1/jobs", "jobs", root, i+1, s.sent, s.sent.Add(s.rtt), nil)
		submit = append(submit, ms(s.rtt))
		if j.StartedAt.IsZero() || j.FinishedAt.IsZero() {
			continue
		}
		rec.add("queue", "jobs", root, i+1, j.SubmittedAt, j.StartedAt, nil)
		rec.add("run", "jobs", root, i+1, j.StartedAt, j.FinishedAt, map[string]any{"attempts": j.Attempts})
		wait = append(wait, ms(j.StartedAt.Sub(j.SubmittedAt)))
		run = append(run, ms(j.FinishedAt.Sub(j.StartedAt)))
	}
	c := sr.lr.final.Counters
	res.metrics["jobs.submit_ms_p50"] = pctOf(submit, 50)
	res.metrics["jobs.queue_wait_ms_p50"] = pctOf(wait, 50)
	res.metrics["jobs.queue_wait_ms_p90"] = pctOf(wait, 90)
	res.metrics["jobs.run_ms_p50"] = pctOf(run, 50)
	res.metrics["jobs.run_ms_p90"] = pctOf(run, 90)
	res.metrics["jobs.artifact_hits"] = one(float64(c.ArtifactHits))
	res.metrics["jobs.artifact_misses"] = one(float64(c.ArtifactMisses))
	res.metrics["jobs.retried"] = one(float64(c.Retried))
	res.metrics["jobs.shed"] = one(float64(c.Shed))
	res.metrics["jobs.queue_depth_max"] = one(float64(sr.lr.depthMax))
	res.metrics["gen.lag_ms_max"] = one(sr.lagMaxMs())
	lc := &layerCounts{evals: obj.evals}
	// The load's wall time is mostly its schedule, so overhead is CPU.
	fmt.Fprintf(e.out, "untraced load %.3fs (CPU %.3fs, digest %s), traced load %.3fs (CPU %.3fs, digest %s)\n",
		plain.wall.Seconds(), plain.lr.cpu.Seconds(), untraced.digest, sr.wall.Seconds(), sr.lr.cpu.Seconds(), res.digest)
	return res, finishTrace(e, "serve-mixed", res, rec, lc, sr.lr.start, sr.wall, overheadPct(plain.lr.cpu, sr.lr.cpu))
}

// compareLoads checks that the traced load gave every job the result of
// the untraced load, because telemetry must not change results. The one
// difference allowed is known defect 2 (README.md): a job whose artifact
// has tied candidates may select differently in two syntheses. Such
// jobs are printed and counted; any other difference fails the run.
func compareLoads(w io.Writer, res *result, plain, traced *serveRun) int {
	reordered := 0
	for i, a := range traced.sched {
		u, t := plain.outs[i], traced.outs[i]
		if u == nil || t == nil || u.String() == t.String() {
			continue // a job without a result already failed the run
		}
		if k := traced.lr.jobs[i].ArtifactKey; plain.tied[k] || traced.tied[k] {
			reordered++
			fmt.Fprintf(w, "known defect 2: job %d (%s) selected differently in the two loads; its artifact has tied candidates\n", i, a.Job.key())
			continue
		}
		res.problem("job %d (%s): traced result %s differs from untraced %s, and its artifact has no tied candidates", i, a.Job.key(), t, u)
	}
	return reordered
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
