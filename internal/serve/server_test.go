package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

func testServer(t *testing.T, workers int) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	return testServerOpts(t, jobs.Options{
		Dir:     t.TempDir(),
		Workers: workers,
		Pipeline: pipeline.Config{
			BlockSize:        3,
			Epsilon:          0.05,
			MaxSamples:       6,
			AnnealIterations: 150,
			SynthBeam:        2,
			Seed:             1,
		},
	})
}

func testServerOpts(t *testing.T, opts jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	m, err := jobs.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(m).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return ts, m
}

func submitBody(t *testing.T, extra string) *bytes.Reader {
	t.Helper()
	src, err := json.Marshal(qasm.Write(algos.GHZ(3)))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"qasm": %s%s}`, src, extra)
	return bytes.NewReader([]byte(body))
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSubmitPollFetchRoundTrip(t *testing.T) {
	ts, _ := testServer(t, 2)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	j := decode[jobs.Job](t, resp)
	if j.ID == "" || j.State != jobs.Queued {
		t.Fatalf("submitted job = %+v", j)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := decode[jobs.Job](t, resp)
		if got.State == jobs.Done {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job landed on %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	p := decode[jobs.ResultPayload](t, resp)
	if p.ID != j.ID || p.SHA == "" || len(p.Selected) == 0 {
		t.Fatalf("result payload = %+v", p)
	}
}

func TestSubmitErrors(t *testing.T) {
	ts, _ := testServer(t, -1)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"qasm": "garbage"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad qasm status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
}

// TestSubmitOverwideBlockSizeIs400: a block size beyond the pipeline's
// bound would allocate a 2ⁿ×2ⁿ unitary per block; it is a bad request.
func TestSubmitOverwideBlockSizeIs400(t *testing.T) {
	ts, _ := testServer(t, -1)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, fmt.Sprintf(`, "params": {"block_size": %d}`, pipeline.MaxBlockSize+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-wide block size status = %d, want 400", resp.StatusCode)
	}
}

func TestQueueFullStormReturns429WithRetryAfter(t *testing.T) {
	ts, _ := testServerOpts(t, jobs.Options{
		Dir:      t.TempDir(),
		Workers:  -1, // nothing drains the queue: the storm must shed
		QueueCap: 3,
		Pipeline: pipeline.Config{BlockSize: 3, Epsilon: 0.05, MaxSamples: 6, AnnealIterations: 150, SynthBeam: 2, Seed: 1},
	})

	shed := 0
	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			submitBody(t, fmt.Sprintf(`, "tenant": "t%d"`, i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("storm submit %d status = %d", i, resp.StatusCode)
		}
	}
	if shed != 3 {
		t.Fatalf("shed %d of 6, want 3", shed)
	}
}

func TestTenantCapReturns429(t *testing.T) {
	ts, _ := testServerOpts(t, jobs.Options{
		Dir:       t.TempDir(),
		Workers:   -1,
		QueueCap:  10,
		TenantCap: 1,
		Pipeline:  pipeline.Config{BlockSize: 3, Epsilon: 0.05, MaxSamples: 6, AnnealIterations: 150, SynthBeam: 2, Seed: 1},
	})
	for i, want := range []int{http.StatusAccepted, http.StatusTooManyRequests} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, `, "tenant": "solo"`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("submit %d status = %d, want %d", i, resp.StatusCode, want)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	ts, _ := testServer(t, -1)

	resp, err := http.Get(ts.URL + "/v1/jobs/j-404")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	j := decode[jobs.Job](t, resp)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before done status = %d, want 409", resp.StatusCode)
	}
}

func TestCancelRoute(t *testing.T) {
	ts, _ := testServer(t, -1)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	j := decode[jobs.Job](t, resp)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}
	// Second cancel: terminal conflict.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status = %d, want 409", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	ts, m := testServer(t, -1)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	st := decode[jobs.Stats](t, resp)
	if !st.JournalOK {
		t.Fatalf("healthz stats = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d", resp.StatusCode)
	}

	// Drain: readiness flips to 503 and submissions bounce with
	// Retry-After.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", submitBody(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit while draining = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSubmitObjectiveRoundTrip: an objective in the params body rides
// through to the job, and a malformed spec maps to 400.
func TestSubmitObjectiveRoundTrip(t *testing.T) {
	ts, _ := testServer(t, 2)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, `, "params": {"objective": "fidelity:manila"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	j := decode[jobs.Job](t, resp)
	if j.Params.Objective != "fidelity:manila" {
		t.Fatalf("objective not recorded: %+v", j.Params)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		submitBody(t, `, "params": {"objective": "espresso"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad objective status = %d, want 400", resp.StatusCode)
	}
}
