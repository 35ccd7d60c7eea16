package fleet

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config assembles a daemon: durability, supervision, and backpressure
// knobs in one place. The zero value is a working development setup
// (WAL in ./fleet.wal, GOMAXPROCS workers, default retry policy).
type Config struct {
	// WALPath locates the write-ahead log (default "fleet.wal"). The
	// file is the daemon's entire durable state: point a restarted
	// daemon at the same path and it resumes every incomplete sweep.
	WALPath string
	// QueueBound caps the pending sweep queue; POST /sweeps answers 429
	// beyond it (default DefaultQueueBound).
	QueueBound int
	// SupervisorConfig tunes how the daemon executes sweeps.
	SupervisorConfig
}

func (c Config) walPath() string {
	if c.WALPath == "" {
		return "fleet.wal"
	}
	return c.WALPath
}

// Server ties store, supervisor and gateway together behind one
// lifecycle: New recovers, Run serves until the context is done, then
// drains and returns with everything checkpointed.
type Server struct {
	cfg Config
	st  *Store
	sup *Supervisor
	gw  *Gateway
	agg *obs.Aggregator
}

// New opens (or creates) the WAL, replays it, and prepares the daemon.
// Incomplete sweeps from a previous process are already queued for
// resumption when New returns.
func New(cfg Config) (*Server, error) {
	st, err := OpenStore(cfg.walPath(), cfg.QueueBound)
	if err != nil {
		return nil, err
	}
	agg := obs.NewAggregator()
	sup := NewSupervisor(st, cfg.SupervisorConfig, agg)
	return &Server{cfg: cfg, st: st, sup: sup, gw: NewGateway(st, agg), agg: agg}, nil
}

// Store exposes the sweep registry (tests and embedders).
func (s *Server) Store() *Store { return s.st }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.gw }

// Resumable reports how many sweeps recovery queued for resumption.
func (s *Server) Resumable() int { return s.st.QueueDepth() }

// Run serves HTTP on ln and executes sweeps until ctx is done, then
// drains gracefully: the listener closes first (no new submissions),
// in-flight replications finish and checkpoint, and the WAL is closed.
// A nil ln runs the supervisor without HTTP (embedded use).
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	var srv *http.Server
	if ln != nil {
		srv = &http.Server{Handler: s.gw}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Serve(ln)
		}()
	}

	s.sup.Run(ctx) // returns when ctx is done and in-flight reps drained

	if srv != nil {
		// The drain already happened; give in-flight HTTP responses a
		// moment, then close.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		srv.Shutdown(shutdownCtx)
		cancel()
		wg.Wait()
	}
	return s.st.Close()
}
