package fleet

// Crash e2e: the tests here re-exec the test binary as a real daemon
// process (TestMain intercepts the child via environment variables),
// kill it — SIGKILL mid-sweep for the crash test, SIGTERM for the
// drain test — and verify the contract on the survivor WAL: a restart
// resumes from the checkpoint and produces results byte-identical to
// an uninterrupted run, and a drain exits 0 with the checkpoint intact.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if wal := os.Getenv("FLEET_HELPER_WAL"); wal != "" {
		runHelperDaemon(wal)
		return
	}
	os.Exit(m.Run())
}

// runHelperDaemon is the child-process body: a real fleet daemon on a
// kernel-assigned port, with the listen address published through a
// rename (so the parent never reads a half-written file). It exits 0
// after a graceful drain — the exit code the SIGTERM test asserts.
func runHelperDaemon(wal string) {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "fleet helper:", err)
		os.Exit(1)
	}
	repDelay, _ := time.ParseDuration(os.Getenv("FLEET_HELPER_REPDELAY"))
	srv, err := New(Config{WALPath: wal, SupervisorConfig: SupervisorConfig{
		Workers:  2,
		RepDelay: repDelay,
		Log:      log.New(os.Stderr, "fleet helper: ", 0),
	}})
	if err != nil {
		die(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die(err)
	}
	addrFile := os.Getenv("FLEET_HELPER_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		die(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		die(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, ln); err != nil {
		die(err)
	}
	os.Exit(0)
}

// startHelper launches the daemon child and waits for it to serve.
func startHelper(t *testing.T, wal, repDelay string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"FLEET_HELPER_WAL="+wal,
		"FLEET_HELPER_ADDRFILE="+addrFile,
		"FLEET_HELPER_REPDELAY="+repDelay)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil {
			base := "http://" + string(addr)
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				return cmd, base
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("helper daemon never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetCrashRecovery is the headline robustness test: SIGKILL the
// daemon mid-sweep (no drain, no flush beyond the per-replication
// fsync), restart it on the same WAL, and require the finished sweep's
// results to be byte-identical to an uninterrupted in-process run —
// with the resume visible in /metrics.
func TestFleetCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary and runs real replications")
	}
	spec := testSpecJSON(4, 17, "EMPoWER,SP-w/o-CC") // 8 reps
	want := referenceResults(t, spec)
	wal := filepath.Join(t.TempDir(), "fleet.wal")

	// Phase 1: daemon with slowed replications; kill -9 once the WAL
	// holds a partial checkpoint.
	cmd1, base1 := startHelper(t, wal, "40ms")
	st, resp := postSweep(t, base1, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := getStatus(t, base1, st.ID)
		if cur.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint before kill (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no handler runs
		t.Fatal(err)
	}
	cmd1.Wait()

	// The WAL alone must carry the checkpoint. Peek at it (read-only
	// replay) to pin down how much work the crash preserved.
	peek, err := OpenStore(wal, 0)
	if err != nil {
		t.Fatalf("WAL unreadable after kill -9: %v", err)
	}
	sw, ok := peek.Get(st.ID)
	if !ok {
		t.Fatal("sweep lost by kill -9")
	}
	atCrash := sw.doneSnapshot().Count()
	peek.Close()
	if atCrash == 0 {
		t.Fatal("kill -9 lost every acknowledged replication")
	}
	t.Logf("crash preserved %d/8 replications", atCrash)

	// Phase 2: restart on the same WAL; the sweep must finish to
	// byte-identical results.
	cmd2, base2 := startHelper(t, wal, "")
	fin := waitState(t, base2, st.ID, StateDone, 120*time.Second)
	if fin.Completed != 8 {
		t.Fatalf("resumed sweep completed %d/8", fin.Completed)
	}
	got := getResults(t, base2, st.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash results differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mbuf.Bytes(), []byte("fleet_sweeps_resumed_total 1")) {
		t.Errorf("/metrics does not report the resume:\n%s", mbuf.String())
	}

	// Drain the survivor; after a completed sweep it must exit 0.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("drained daemon exited non-zero: %v", err)
	}
}

// TestFleetSigtermDrain: SIGTERM mid-sweep is a graceful drain — the
// daemon finishes in-flight replications, checkpoints, and exits 0;
// the WAL holds a resumable partial sweep.
func TestFleetSigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary and runs real replications")
	}
	wal := filepath.Join(t.TempDir(), "fleet.wal")
	cmd, base := startHelper(t, wal, "60ms")
	st, _ := postSweep(t, base, testSpecJSON(6, 23, "EMPoWER,SP-w/o-CC")) // 12 reps
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, base, st.ID).Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no replication completed before drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v", err)
	}

	store, err := OpenStore(wal, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sw, ok := store.Get(st.ID)
	if !ok {
		t.Fatal("sweep lost by drain")
	}
	n := sw.doneSnapshot().Count()
	if n == 0 {
		t.Fatal("drain checkpointed nothing")
	}
	if n < 12 {
		if sw.State() != StatePending {
			t.Fatalf("partial sweep replayed as %s, want pending (resumable)", sw.State())
		}
		if store.QueueDepth() != 1 {
			t.Fatalf("partial sweep not requeued (depth %d)", store.QueueDepth())
		}
	} else if sw.State() != StateDone {
		t.Fatalf("complete sweep replayed as %s", sw.State())
	}
	t.Logf("drain checkpointed %d/12 replications", n)
}
