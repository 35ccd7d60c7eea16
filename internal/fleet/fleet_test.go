package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// testScenario is a tiny self-contained flap scenario (a shrunk cousin
// of examples/scenarios/flaps.json) — short enough that one replication
// runs in tens of milliseconds, rich enough to exercise failover.
const testScenario = `{
  "name": "fleet-test-flaps",
  "duration": 20,
  "topology": {
    "kind": "custom",
    "nodes": [
      { "name": "src", "x": 0, "y": 0, "techs": ["PLC", "WiFi"] },
      { "name": "relay", "x": 10, "y": 0, "techs": ["PLC", "WiFi"] },
      { "name": "dst", "x": 20, "y": 0, "techs": ["PLC", "WiFi"] }
    ],
    "links": [
      { "from": "src", "to": "dst", "tech": "PLC", "capacity": 40 },
      { "from": "src", "to": "relay", "tech": "WiFi", "capacity": 60 },
      { "from": "relay", "to": "dst", "tech": "WiFi", "capacity": 60 }
    ]
  },
  "flows": [ { "name": "main", "src": "src", "dst": "dst", "start": 0 } ],
  "processes": [
    {
      "kind": "flap",
      "link": { "from": "src", "to": "dst", "tech": "PLC" },
      "first_at": 3,
      "down_mean": 5,
      "up_mean": 6
    }
  ]
}`

// testSpecJSON builds a sweep spec over the test scenario.
func testSpecJSON(runs int, seed int64, schemes string) []byte {
	return []byte(fmt.Sprintf(
		`{"name":"t","scenario":%s,"runs":%d,"seed":%d,"schemes":%q}`,
		testScenario, runs, seed, schemes))
}

// referenceResults computes what an uninterrupted in-process sweep of
// the same spec produces — through the same ParseSpec → ChurnConfig →
// merge pipeline the daemon uses, but with zero fleet machinery.
func referenceResults(t *testing.T, specJSON []byte) []byte {
	t.Helper()
	spec, err := ParseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.ChurnFailoverCtx(context.Background(), spec.Scenario, spec.Churn)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startServer runs a fleet server (store + supervisor) and its HTTP
// gateway; the returned stop func drains and waits for Run to return.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	if cfg.WALPath == "" {
		cfg.WALPath = filepath.Join(t.TempDir(), "fleet.wal")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Run(ctx, nil)
	}()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		wg.Wait()
		hts.Close()
	}
	t.Cleanup(stop)
	return srv, hts, stop
}

func postSweep(t *testing.T, base string, spec []byte) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/sweeps", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the sweep reaches a terminal state.
func waitState(t *testing.T, base, id string, want SweepState, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State == string(want) {
			return st
		}
		if SweepState(st.State).terminal() {
			t.Fatalf("sweep %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s after %v (%d/%d)", id, st.State, timeout, st.Completed, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResults(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestFleetEndToEnd: submit over HTTP, run to completion, and require
// the served results to be byte-identical to a plain in-process
// ChurnFailover of the same spec — the daemon's checkpoint pipeline
// (marshal → WAL → unmarshal → merge) must be invisible in the bytes.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real emulation replications")
	}
	spec := testSpecJSON(2, 7, "EMPoWER,SP-w/o-CC")
	want := referenceResults(t, spec)

	_, hts, _ := startServer(t, Config{Workers: 4})
	st, resp := postSweep(t, hts.URL, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.Total != 4 {
		t.Fatalf("total = %d, want 4 (2 runs x 2 schemes)", st.Total)
	}
	waitState(t, hts.URL, st.ID, StateDone, 60*time.Second)
	got := getResults(t, hts.URL, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon results differ from uninterrupted in-process run:\n got %s\nwant %s", got, want)
	}

	// The merged /metrics snapshot must lint and carry fleet series.
	mresp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbuf.String(), "fleet_reps_completed_total") {
		t.Error("/metrics misses fleet_reps_completed_total")
	}
	if !strings.Contains(mbuf.String(), "empower_runner_replications_total") {
		t.Error("/metrics misses the per-sweep runner series")
	}
}

// TestFleetDrainAndResume is the in-process half of the crash story:
// drain a server mid-sweep (context cancel, like SIGTERM), reopen the
// same WAL in a fresh server, let it finish, and require byte-identical
// results — with the completed replications never re-executed.
func TestFleetDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real emulation replications")
	}
	spec := testSpecJSON(4, 11, "EMPoWER,SP-w/o-CC") // 8 reps
	want := referenceResults(t, spec)
	wal := filepath.Join(t.TempDir(), "fleet.wal")

	// Phase 1: run with a per-rep delay so the drain catches the sweep
	// mid-flight, stop after a few completions.
	srv1, hts1, stop1 := startServer(t, Config{WALPath: wal, Workers: 2, RepDelay: 30 * time.Millisecond})
	st, _ := postSweep(t, hts1.URL, spec)
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := getStatus(t, hts1.URL, st.ID)
		if cur.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no replications completed before drain (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop1()
	sw1, _ := srv1.Store().Get(st.ID)
	atDrain := sw1.doneSnapshot().Count()
	if atDrain == 0 || atDrain == 8 {
		t.Fatalf("drain caught %d/8 completions; need a mid-flight cut", atDrain)
	}

	// Phase 2: fresh server, same WAL. The sweep must come back
	// resumable with the checkpointed completions intact and finish to
	// byte-identical results without re-running them.
	executed := make(map[int]bool)
	var mu sync.Mutex
	srv2, err := New(Config{WALPath: wal, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Resumable() != 1 {
		t.Fatalf("recovered %d resumable sweeps, want 1", srv2.Resumable())
	}
	srv2.sup.wrapJob = func(job runner.Job[*experiments.ChurnRepOut]) runner.Job[*experiments.ChurnRepOut] {
		return func(ctx context.Context, rep runner.Rep) (*experiments.ChurnRepOut, error) {
			mu.Lock()
			executed[rep.Index] = true
			mu.Unlock()
			return job(ctx, rep)
		}
	}
	hts2 := httptest.NewServer(srv2.Handler())
	defer hts2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go srv2.Run(ctx2, nil)

	waitState(t, hts2.URL, st.ID, StateDone, 60*time.Second)
	got := getResults(t, hts2.URL, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed results differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(executed) != 8-atDrain {
		t.Fatalf("resume executed %d replications, want %d (checkpointed %d of 8)",
			len(executed), 8-atDrain, atDrain)
	}
	for idx := range executed {
		if sw1.doneSnapshot().Has(idx) {
			t.Errorf("replication %d was checkpointed before drain but re-executed", idx)
		}
	}
}

// TestFleetSupervisionFaults injects failures, panics, and hangs into
// replications and requires (a) the daemon to survive, (b) the sweep to
// finish after retries, and (c) the final bytes to still match the
// uninterrupted reference — supervision must never leak into results.
func TestFleetSupervisionFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real emulation replications")
	}
	spec := testSpecJSON(2, 3, "EMPoWER")
	want := referenceResults(t, spec)

	wal := filepath.Join(t.TempDir(), "fleet.wal")
	srv, err := New(Config{
		WALPath:     wal,
		Workers:     2,
		MaxRetries:  3,
		RepTimeout:  20 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	attempts := map[int]int{}
	srv.sup.wrapJob = func(job runner.Job[*experiments.ChurnRepOut]) runner.Job[*experiments.ChurnRepOut] {
		return func(ctx context.Context, rep runner.Rep) (*experiments.ChurnRepOut, error) {
			mu.Lock()
			attempts[rep.Index]++
			n := attempts[rep.Index]
			mu.Unlock()
			switch {
			case rep.Index == 0 && n == 1:
				return nil, fmt.Errorf("injected transient failure")
			case rep.Index == 1 && n <= 2:
				panic("injected replication panic")
			}
			return job(ctx, rep)
		}
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Run(ctx, nil)

	st, _ := postSweep(t, hts.URL, spec)
	fin := waitState(t, hts.URL, st.ID, StateDone, 60*time.Second)
	if fin.Retries < 3 {
		t.Errorf("retries = %d, want >= 3 (1 failure + 2 panics)", fin.Retries)
	}
	if fin.Panics != 2 {
		t.Errorf("panics = %d, want 2", fin.Panics)
	}
	got := getResults(t, hts.URL, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("supervised results differ from reference:\n got %s\nwant %s", got, want)
	}
}

// TestFleetPoisonedSweepFailsAlone: a replication that fails every
// attempt fails its sweep — and only its sweep; the daemon keeps
// serving and runs the next sweep to completion.
func TestFleetPoisonedSweepFailsAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real emulation replications")
	}
	wal := filepath.Join(t.TempDir(), "fleet.wal")
	srv, err := New(Config{
		WALPath:     wal,
		Workers:     2,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	poison := true
	var mu sync.Mutex
	srv.sup.wrapJob = func(job runner.Job[*experiments.ChurnRepOut]) runner.Job[*experiments.ChurnRepOut] {
		return func(ctx context.Context, rep runner.Rep) (*experiments.ChurnRepOut, error) {
			mu.Lock()
			bad := poison
			mu.Unlock()
			if bad && rep.Index == 1 {
				panic("poisoned replication")
			}
			return job(ctx, rep)
		}
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Run(ctx, nil)

	bad, _ := postSweep(t, hts.URL, testSpecJSON(1, 5, "EMPoWER,SP-w/o-CC"))
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, hts.URL, bad.ID)
		if st.State == string(StateFailed) {
			if !strings.Contains(st.Error, "attempts") {
				t.Errorf("failure error %q misses the attempt count", st.Error)
			}
			break
		}
		if st.State == string(StateDone) {
			t.Fatal("poisoned sweep completed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("poisoned sweep stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	poison = false
	mu.Unlock()

	good, _ := postSweep(t, hts.URL, testSpecJSON(1, 5, "EMPoWER"))
	waitState(t, hts.URL, good.ID, StateDone, 60*time.Second)
	// The failed sweep's results endpoint must answer 409, not 500.
	resp, err := http.Get(hts.URL + "/sweeps/" + bad.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("failed sweep results: status %d, want 409", resp.StatusCode)
	}
}

// TestFleetSSEStream consumes the results stream: per-replication
// events followed by a final done event whose payload equals the
// non-streamed results document byte for byte.
func TestFleetSSEStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real emulation replications")
	}
	spec := testSpecJSON(2, 9, "EMPoWER")
	_, hts, _ := startServer(t, Config{Workers: 2})
	st, _ := postSweep(t, hts.URL, spec)

	resp, err := http.Get(hts.URL + "/sweeps/" + st.ID + "/results?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	events := strings.Split(strings.TrimSpace(buf.String()), "\n\n")
	if len(events) != 3 {
		t.Fatalf("stream carried %d events, want 2 reps + 1 done:\n%s", len(events), buf.String())
	}
	seen := map[int]bool{}
	for _, ev := range events[:2] {
		if !strings.HasPrefix(ev, "event: rep\n") {
			t.Fatalf("expected rep event, got %q", ev)
		}
		var rep struct {
			Index int             `json:"index"`
			Out   json.RawMessage `json:"out"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.SplitN(ev, "\n", 2)[1], "data: ")), &rep); err != nil {
			t.Fatal(err)
		}
		if seen[rep.Index] || len(rep.Out) == 0 {
			t.Fatalf("bad rep event: index %d (dup %v), %d out bytes", rep.Index, seen[rep.Index], len(rep.Out))
		}
		seen[rep.Index] = true
	}
	if !strings.HasPrefix(events[2], "event: done\n") {
		t.Fatalf("expected done event, got %q", events[2])
	}
	final := strings.TrimPrefix(strings.SplitN(events[2], "\n", 2)[1], "data: ")
	if want := string(getResults(t, hts.URL, st.ID)); final != want {
		t.Fatalf("streamed final result differs from GET results:\n got %s\nwant %s", final, want)
	}
}

// TestFleetSpecRejections covers the structured 400 path: every bad
// spec names its offending field, and nothing is enqueued.
func TestFleetSpecRejections(t *testing.T) {
	_, hts, _ := startServer(t, Config{})
	cases := []struct {
		name, body, field string
	}{
		{"empty", ``, ""},
		{"malformed", `{"scenario":`, ""},
		{"unknown-field", `{"scenario":` + testScenario + `,"runz":3}`, "runz"},
		{"missing-scenario", `{"runs":3}`, "scenario"},
		{"bad-scenario", `{"scenario":{"name":"x","duration":10,"nope":1}}`, "scenario"},
		{"bad-scheme", `{"scenario":` + testScenario + `,"schemes":"NoSuch"}`, "schemes"},
		{"negative-runs", `{"scenario":` + testScenario + `,"runs":-1}`, "runs"},
		{"bad-delta", `{"scenario":` + testScenario + `,"delta":1.5}`, "delta"},
		{"bad-frac", `{"scenario":` + testScenario + `,"frac":2}`, "frac"},
		{"wrong-type", `{"scenario":` + testScenario + `,"runs":"three"}`, "runs"},
		{"trailing", `{"scenario":` + testScenario + `} {"again":1}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hts.URL+"/sweeps", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var b errorBody
			if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
				t.Fatalf("400 body is not structured JSON: %v", err)
			}
			if b.Error.Field != tc.field {
				t.Errorf("field = %q, want %q (reason %q)", b.Error.Field, tc.field, b.Error.Reason)
			}
			if b.Error.Reason == "" && b.Error.Message == "" {
				t.Error("400 carries no reason")
			}
		})
	}
	resp, err := http.Get(hts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []Status `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 0 {
		t.Fatalf("rejected specs enqueued %d sweeps", len(list.Sweeps))
	}
}

// TestFleetBackpressure: with a bound-1 queue and no supervisor
// draining it, the second submission answers 429 with Retry-After.
func TestFleetBackpressure(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "fleet.wal")
	srv, err := New(Config{WALPath: wal, QueueBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Store().Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	// No supervisor running: the first sweep stays queued.
	if _, resp := postSweep(t, hts.URL, testSpecJSON(1, 1, "EMPoWER")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp := postSweep(t, hts.URL, testSpecJSON(1, 2, "EMPoWER"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestFleetCancel covers both cancellation paths: a queued sweep
// transitions immediately; a running sweep is cancelled through its
// execution context and records the terminal state durably.
func TestFleetCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real emulation replications")
	}
	wal := filepath.Join(t.TempDir(), "fleet.wal")

	// Queued cancellation: no supervisor.
	srv, err := New(Config{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	st, _ := postSweep(t, hts.URL, testSpecJSON(1, 1, "EMPoWER"))
	req, _ := http.NewRequest(http.MethodDelete, hts.URL+"/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: %d, want 202", resp.StatusCode)
	}
	if got := getStatus(t, hts.URL, st.ID); got.State != string(StateCancelled) {
		t.Fatalf("queued sweep state %s after cancel", got.State)
	}
	// Double-cancel conflicts.
	req2, _ := http.NewRequest(http.MethodDelete, hts.URL+"/sweeps/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", resp2.StatusCode)
	}
	hts.Close()
	srv.Store().Close()

	// Running cancellation: slow reps, cancel mid-sweep, reopen the WAL
	// and require the cancelled state to have survived.
	srv2, hts2, stop2 := startServer(t, Config{WALPath: wal, Workers: 1, RepDelay: 50 * time.Millisecond})
	st2, _ := postSweep(t, hts2.URL, testSpecJSON(4, 2, "EMPoWER,SP-w/o-CC"))
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, hts2.URL, st2.ID).State != string(StateRunning) {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req3, _ := http.NewRequest(http.MethodDelete, hts2.URL+"/sweeps/"+st2.ID, nil)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	deadline = time.Now().Add(30 * time.Second)
	for getStatus(t, hts2.URL, st2.ID).State != string(StateCancelled) {
		if time.Now().After(deadline) {
			t.Fatalf("running sweep stuck in %s after cancel", getStatus(t, hts2.URL, st2.ID).State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop2()
	_ = srv2

	st3, err := OpenStore(wal, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	sw, ok := st3.Get(st2.ID)
	if !ok {
		t.Fatal("cancelled sweep lost on replay")
	}
	if sw.State() != StateCancelled {
		t.Fatalf("replayed state %s, want cancelled", sw.State())
	}
	if st3.QueueDepth() != 0 {
		t.Fatalf("cancelled sweeps requeued: depth %d", st3.QueueDepth())
	}
}

// TestFleetMatchesCLIOnMultiDomain: a spec's "shards" is a worker cap and
// nothing else. On the shipped four-cluster scenario the daemon's results
// with shards omitted and with "shards": 2 are byte-identical to each
// other and to what the CLI's default (-shards 1) computes for the same
// seed and δ.
func TestFleetMatchesCLIOnMultiDomain(t *testing.T) {
	scenarioJSON, err := os.ReadFile("../../examples/scenarios/clusters.json")
	if err != nil {
		t.Fatal(err)
	}
	specJSON := func(extra string) []byte {
		return []byte(fmt.Sprintf(`{"scenario":%s,"runs":2,"seed":5,"schemes":"EMPoWER","delta":0.05%s}`,
			scenarioJSON, extra))
	}
	spec, err := ParseSpec(specJSON(""))
	if err != nil {
		t.Fatal(err)
	}
	cli := spec.Churn
	cli.Shards = 1
	res, err := experiments.ChurnFailoverCtx(context.Background(), spec.Scenario, cli)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	_, hts, _ := startServer(t, Config{Workers: 2})
	for _, extra := range []string{"", `,"shards":2`} {
		st, resp := postSweep(t, hts.URL, specJSON(extra))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit (%q): status %d", extra, resp.StatusCode)
		}
		waitState(t, hts.URL, st.ID, StateDone, 120*time.Second)
		if got := getResults(t, hts.URL, st.ID); !bytes.Equal(got, want) {
			t.Fatalf("daemon results (spec suffix %q) differ from the CLI's at -shards 1:\n got %s\nwant %s", extra, got, want)
		}
	}
}
