package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// daemon is one empower-fleet process with a WAL directory of its own.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	walDir string
	stderr bytes.Buffer
	client *http.Client
}

func (d *daemon) walPath() string { return filepath.Join(d.walDir, "fleet.wal") }

// pollInterval is how often a client asks for a sweep's status. It is
// short against the smallest sweep (~85 ms) and still costs the daemon
// little: a status request is a mutex and a few hundred bytes of JSON.
const pollInterval = 5 * time.Millisecond

// startDaemon launches empower-fleet on a free loopback port with a fresh
// WAL directory and waits until /healthz answers.
func startDaemon(workers int) (*daemon, error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return nil, err
	}
	// Reserve a port by binding it, then hand it to the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{
		base: "http://" + addr, walDir: walDir,
		// One connection per client goroutine stays open across the loop.
		client: &http.Client{Timeout: 2 * time.Minute},
	}
	d.cmd = exec.Command(binPath(binFleet), "-addr", addr, "-wal", d.walPath(),
		"-workers", strconv.Itoa(workers), "-quiet")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("empower-fleet never answered /healthz: %s", d.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, requires exit code 0 and removes
// the WAL directory.
func (d *daemon) stop() error {
	defer os.RemoveAll(d.walDir)
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("empower-fleet: SIGTERM: %w", err)
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("empower-fleet did not drain cleanly: %w: %s", err, d.stderr.String())
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// sweepStatus is the part of the daemon's status document the harness
// reads.
type sweepStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Retries  int    `json:"retries"`
	Timeouts int    `json:"timeouts"`
	Panics   int    `json:"panics"`
	Error    string `json:"error"`
}

// roundTrip performs one request and reads the whole body.
func (d *daemon) roundTrip(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sweepTimes are the client-side spans of one sweep, recorded only in the
// traced pass.
type sweepTimes struct {
	submit    time.Duration
	queueWait time.Duration // POST acknowledged -> first status not "pending"
	status    []time.Duration
	results   time.Duration
	// idleStatus is one more status round trip after the results arrived,
	// when no replication competes for the daemon's CPUs: the floor the
	// results round trip is compared against.
	idleStatus time.Duration
}

// runSweep is one fleet operation: POST /sweeps, poll the status until
// the sweep is terminal, GET the results. It lasts from the first byte of
// the POST to the last byte of the results body. Any retry, timeout or
// panic the status reports fails the operation.
func (d *daemon) runSweep(body []byte, times *sweepTimes) (opResult, sweepStatus) {
	var res opResult
	var st sweepStatus
	start := time.Now()
	fail := func(format string, args ...any) (opResult, sweepStatus) {
		res.wall = time.Since(start)
		res.err = fmt.Errorf(format, args...)
		return res, st
	}

	code, data, err := d.roundTrip(http.MethodPost, "/sweeps", body)
	acked := time.Now()
	if err != nil || code != http.StatusCreated {
		return fail("POST /sweeps: status %d, %v: %s", code, err, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return fail("POST /sweeps: %v", err)
	}
	if times != nil {
		times.submit = acked.Sub(start)
	}
	path := "/sweeps/" + st.ID
	for started := false; st.State == "pending" || st.State == "running"; {
		time.Sleep(pollInterval)
		t0 := time.Now()
		code, data, err = d.roundTrip(http.MethodGet, path, nil)
		if err != nil || code != http.StatusOK {
			return fail("GET %s: status %d, %v", path, code, err)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return fail("GET %s: %v", path, err)
		}
		if times != nil {
			times.status = append(times.status, time.Since(t0))
			if !started && st.State != "pending" {
				started = true
				times.queueWait = t0.Sub(acked)
			}
		}
	}
	if st.State != "done" || st.Retries+st.Timeouts+st.Panics > 0 {
		return fail("sweep %s: state %s, %d retries, %d timeouts, %d panics: %s",
			st.ID, st.State, st.Retries, st.Timeouts, st.Panics, st.Error)
	}
	t0 := time.Now()
	code, data, err = d.roundTrip(http.MethodGet, path+"/results", nil)
	if err != nil || code != http.StatusOK {
		return fail("GET %s/results: status %d, %v", path, code, err)
	}
	res.wall = time.Since(start)
	res.out = bytes.TrimSuffix(data, []byte("\n"))
	if times != nil {
		times.results = res.wall - t0.Sub(start)
		t0 = time.Now()
		if code, _, err := d.roundTrip(http.MethodGet, path, nil); err != nil || code != http.StatusOK {
			return fail("GET %s: status %d, %v", path, code, err)
		}
		times.idleStatus = time.Since(t0)
	}
	return res, st
}

// metrics fetches and parses GET /metrics.
func (d *daemon) metrics() (promSnapshot, time.Duration, error) {
	t0 := time.Now()
	code, data, err := d.roundTrip(http.MethodGet, "/metrics", nil)
	elapsed := time.Since(t0)
	if err != nil || code != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d, %v", code, err)
	}
	snap, err := parseProm(data)
	return snap, elapsed, err
}
