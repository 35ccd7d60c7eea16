// Command empower-fleet is the crash-safe sweep daemon: a long-running
// service that accepts churn-sweep specs over HTTP, executes their
// replications on a supervised worker pool, and checkpoints every
// completed replication to an fsync'd write-ahead log. Kill it — with
// SIGTERM or with `kill -9` — and a restart pointed at the same -wal
// file replays the log and resumes every incomplete sweep from its
// completed-replication set. Because each replication is a pure
// function of (spec, seed, index), the resumed sweep's final results
// are byte-identical to an uninterrupted run at any worker count.
//
// API (see DESIGN.md for the full contract):
//
//	POST   /sweeps               submit a spec (strict schema; 400 with
//	                             {"error":{"field","reason"}} on typos,
//	                             429 + Retry-After under backpressure)
//	GET    /sweeps               list sweeps
//	GET    /sweeps/{id}          status (state, completed/total, retries)
//	GET    /sweeps/{id}/results  final results JSON, or ?stream=1 for an
//	                             SSE stream of per-replication outputs
//	                             capped by the merged result
//	DELETE /sweeps/{id}          cancel
//	GET    /metrics              Prometheus text (daemon + sweeps)
//	GET    /healthz              liveness
//
// Flags:
//
//	-addr host:port  HTTP listen address (default :8080)
//	-wal file        write-ahead log path (default fleet.wal)
//	-workers N       replication workers per sweep (<= 0: GOMAXPROCS)
//	-retries N       per-replication retries before a sweep fails (2)
//	-timeout D       per-replication attempt timeout (0 = none)
//	-queue N         pending-sweep bound before 429s (default 64)
//	-repdelay D      fault-injection: sleep D before every replication
//	                 attempt (testing aid; widens the crash window)
//	-pprof addr      serve net/http/pprof on addr
//	-quiet           suppress supervision logs
//
// Signals: SIGTERM and SIGINT start a graceful drain — no new sweeps or
// replications start, in-flight replications finish and checkpoint, the
// process exits 0. A second signal exits immediately (the WAL keeps the
// acknowledged state either way).
//
// Usage:
//
//	empower-fleet -addr :8080 -wal /var/lib/empower/fleet.wal
//	curl -s localhost:8080/sweeps -d @examples/sweeps/quickstart.json
//	curl -s localhost:8080/sweeps/sweep-000001
//	curl -sN 'localhost:8080/sweeps/sweep-000001/results?stream=1'
//	curl -s -X DELETE localhost:8080/sweeps/sweep-000001
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net"
	"os"

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	wal := flag.String("wal", "fleet.wal", "write-ahead log path (the daemon's durable state)")
	workers := flag.Int("workers", 0, "replication workers per sweep (<= 0: GOMAXPROCS)")
	retries := flag.Int("retries", 2, "per-replication retries before the sweep fails")
	timeout := flag.Duration("timeout", 0, "per-replication attempt timeout (0 = none)")
	queue := flag.Int("queue", fleet.DefaultQueueBound, "pending-sweep queue bound (429 beyond it)")
	repDelay := flag.Duration("repdelay", 0, "fault-injection: sleep before every replication attempt")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	quiet := flag.Bool("quiet", false, "suppress supervision logs")

	// The first SIGTERM/SIGINT cancels ctx → graceful drain, exit 0; a
	// second signal kills the process the ordinary way. Either way the
	// WAL holds every acknowledged replication.
	cli.Main("empower-fleet", func(ctx context.Context) error {
		logger := log.New(os.Stderr, "", log.LstdFlags)
		if *quiet {
			logger = log.New(io.Discard, "", 0)
		}
		if *pprofAddr != "" {
			if err := obs.ServePprof(*pprofAddr); err != nil {
				return err
			}
		}

		srv, err := fleet.New(fleet.Config{
			WALPath:    *wal,
			QueueBound: *queue,
			SupervisorConfig: fleet.SupervisorConfig{
				Workers:    *workers,
				MaxRetries: *retries,
				RepTimeout: *timeout,
				RepDelay:   *repDelay,
				Log:        logger,
			},
		})
		if err != nil {
			return err
		}
		if n := srv.Resumable(); n > 0 {
			logger.Printf("empower-fleet: recovered %d incomplete sweep(s); resuming", n)
		}

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		logger.Printf("empower-fleet: serving on %s (wal %s)", ln.Addr(), *wal)

		if err := srv.Run(ctx, ln); err != nil {
			return err
		}
		logger.Printf("empower-fleet: drained; all completed replications checkpointed")
		return nil
	})
}
