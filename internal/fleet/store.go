package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// SweepState is a sweep's lifecycle position. Pending and Running are
// volatile (a restart demotes Running to Pending — the WAL holds no
// "running" records because a crash can interleave with any of them);
// Done, Failed and Cancelled are terminal and logged.
type SweepState string

// Sweep lifecycle states.
const (
	StatePending   SweepState = "pending"
	StateRunning   SweepState = "running"
	StateDone      SweepState = "done"
	StateFailed    SweepState = "failed"
	StateCancelled SweepState = "cancelled"
)

// sweepStates lists every lifecycle state, in the order the daemon
// gauges report them.
var sweepStates = [...]SweepState{StatePending, StateRunning, StateDone, StateFailed, StateCancelled}

func (s SweepState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// walRecord is the single WAL payload schema, a tagged union:
//
//   - kind "sweep": a submission — ID plus the raw spec bytes.
//   - kind "rep":   one completed replication — ID, index, output JSON.
//   - kind "state": a terminal transition — ID, state, optional error.
//
// Replay folds records in append order; unknown IDs and out-of-range
// indices are skipped (a truncated log can legally lose a submission's
// later records, never the reverse).
type walRecord struct {
	Kind  string          `json:"kind"`
	ID    string          `json:"id"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Rep   int             `json:"rep,omitempty"`
	Out   json.RawMessage `json:"out,omitempty"`
	State SweepState      `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
}

// Sweep is one submitted sweep's full state. Mutations go through the
// Store so they hit the WAL first; reads snapshot under the sweep mutex.
type Sweep struct {
	ID   string
	Spec *SweepSpec
	// Agg aggregates this sweep's per-replication metric registries —
	// the per-sweep obs.Aggregator the gateway mounts on /metrics and
	// /sweeps/{id}/metrics.
	Agg *obs.Aggregator

	mu    sync.Mutex
	state SweepState
	// outs[i] is replication i's serialized ChurnRepOut (nil until
	// completed). Results are always merged from these bytes — never
	// from live in-memory values — so an uninterrupted sweep and a
	// resumed one share one code path and one output byte stream.
	outs []json.RawMessage
	// order lists completed indices in completion order; SSE streams
	// replay it through subscriber cursors.
	order    []int
	errMsg   string
	retries  int
	timeouts int
	panics   int
	// changed is closed (and replaced) on every mutation — a broadcast
	// primitive for streaming watchers.
	changed chan struct{}
	// cancel aborts the in-flight execution (set by the supervisor
	// while the sweep runs).
	cancel context.CancelCauseFunc
	// final caches the merged results JSON once the sweep is done.
	final []byte
}

func newSweep(id string, spec *SweepSpec) *Sweep {
	return &Sweep{
		ID:      id,
		Spec:    spec,
		Agg:     obs.NewAggregator(),
		state:   StatePending,
		outs:    make([]json.RawMessage, spec.Total),
		changed: make(chan struct{}),
	}
}

func (sw *Sweep) notifyLocked() {
	close(sw.changed)
	sw.changed = make(chan struct{})
}

// Watch returns a channel closed on the next mutation plus the current
// completion cursor and state — the streaming handler's wait primitive.
func (sw *Sweep) Watch() (<-chan struct{}, int, SweepState) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.changed, len(sw.order), sw.state
}

// CompletedAt returns the i'th completed replication (completion order)
// as (index, output bytes).
func (sw *Sweep) CompletedAt(i int) (int, json.RawMessage) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	idx := sw.order[i]
	return idx, sw.outs[idx]
}

// Status is the gateway's sweep summary.
type Status struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Retries   int    `json:"retries"`
	Timeouts  int    `json:"timeouts"`
	Panics    int    `json:"panics"`
	Error     string `json:"error,omitempty"`
}

// Status snapshots the sweep.
func (sw *Sweep) Status() Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return Status{
		ID:        sw.ID,
		Name:      sw.Spec.Name,
		State:     string(sw.state),
		Total:     sw.Spec.Total,
		Completed: len(sw.order),
		Retries:   sw.retries,
		Timeouts:  sw.timeouts,
		Panics:    sw.panics,
		Error:     sw.errMsg,
	}
}

// State returns the current lifecycle state.
func (sw *Sweep) State() SweepState {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// doneSnapshot copies the completed set — RunFrom's starting point.
func (sw *Sweep) doneSnapshot() *runner.RepSet {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	s := runner.NewRepSet(sw.Spec.Total)
	for _, i := range sw.order {
		s.Add(i)
	}
	return s
}

// completeLocked records replication idx's output unless it has one
// already and reports whether it did. The caller holds sw.mu.
func (sw *Sweep) completeLocked(idx int, out []byte) bool {
	if sw.outs[idx] != nil {
		return false
	}
	sw.outs[idx] = append(json.RawMessage(nil), out...)
	sw.order = append(sw.order, idx)
	return true
}

// Results merges the persisted replication outputs into the final sweep
// result and returns its JSON encoding. Only legal once the sweep is
// done; the merge reads exclusively the WAL-persisted bytes, making
// "resumed" vs "uninterrupted" indistinguishable by construction.
func (sw *Sweep) Results() ([]byte, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.final != nil {
		return sw.final, nil
	}
	if sw.state != StateDone {
		return nil, fmt.Errorf("fleet: sweep %s is %s, results need state done", sw.ID, sw.state)
	}
	outs := make([]*experiments.ChurnRepOut, sw.Spec.Total)
	for i, raw := range sw.outs {
		if len(raw) == 0 {
			return nil, fmt.Errorf("fleet: sweep %s done but replication %d has no output", sw.ID, i)
		}
		var out experiments.ChurnRepOut
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("fleet: sweep %s replication %d: decode: %w", sw.ID, i, err)
		}
		outs[i] = &out
	}
	res := experiments.MergeChurnReps(sw.Spec.Scenario.Name, sw.Spec.Churn, outs)
	data, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("fleet: sweep %s: encode results: %w", sw.ID, err)
	}
	sw.final = data
	return data, nil
}

// Store is the durable sweep registry: every mutation is WAL-appended
// before it is applied in memory, and OpenStore rebuilds the identical
// state from the log. The pending queue lives here too, so recovery and
// live submission share one path.
type Store struct {
	mu     sync.Mutex
	wal    *WAL
	sweeps map[string]*Sweep
	byAge  []*Sweep // submission order
	seq    int
	// pending is the FIFO of sweeps awaiting execution; wake nudges the
	// supervisor without holding the lock.
	pending []*Sweep
	wake    chan struct{}
	// QueueBound caps len(pending) for live submissions (recovery is
	// exempt: a restart must never drop previously accepted work).
	QueueBound int
}

// ErrQueueFull is returned by Submit when the pending queue is at its
// bound; the gateway maps it to 429 + Retry-After.
var ErrQueueFull = fmt.Errorf("fleet: pending sweep queue is full")

// DefaultQueueBound caps the pending queue when Config.QueueBound is 0.
const DefaultQueueBound = 64

// OpenStore opens the WAL at path, replays it into a fresh store, and
// re-queues every non-terminal sweep for resumption in submission order.
func OpenStore(path string, queueBound int) (*Store, error) {
	if queueBound <= 0 {
		queueBound = DefaultQueueBound
	}
	st := &Store{
		sweeps:     map[string]*Sweep{},
		wake:       make(chan struct{}, 1),
		QueueBound: queueBound,
	}
	wal, err := OpenWAL(path, st.replay)
	if err != nil {
		return nil, err
	}
	st.wal = wal
	for _, sw := range st.byAge {
		if !sw.State().terminal() {
			st.pending = append(st.pending, sw)
		}
	}
	return st, nil
}

// replay folds one WAL record into the store during OpenStore.
func (st *Store) replay(payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		// An intact frame with an undecodable payload means the record
		// schema moved underneath an old log; surface it rather than
		// silently dropping acknowledged state.
		return fmt.Errorf("fleet: wal record decode: %w", err)
	}
	switch rec.Kind {
	case "sweep":
		spec, err := ParseSpec(rec.Spec)
		if err != nil {
			// The spec was valid when acknowledged; if it no longer
			// parses the schema drifted. Keep the sweep visible as
			// failed instead of resurrecting it wrong or dying.
			spec = &SweepSpec{Raw: append([]byte(nil), rec.Spec...), Total: 0}
			sw := newSweep(rec.ID, spec)
			sw.state = StateFailed
			sw.errMsg = fmt.Sprintf("spec no longer parses after restart: %v", err)
			st.sweeps[rec.ID] = sw
			st.byAge = append(st.byAge, sw)
			st.bumpSeq(rec.ID)
			return nil
		}
		sw := newSweep(rec.ID, spec)
		st.sweeps[rec.ID] = sw
		st.byAge = append(st.byAge, sw)
		st.bumpSeq(rec.ID)
	case "rep":
		sw := st.sweeps[rec.ID]
		if sw == nil || rec.Rep < 0 || rec.Rep >= sw.Spec.Total || len(rec.Out) == 0 {
			return nil
		}
		sw.mu.Lock()
		sw.completeLocked(rec.Rep, rec.Out)
		sw.mu.Unlock()
	case "state":
		sw := st.sweeps[rec.ID]
		// A sweep whose spec no longer parses stays failed with that
		// reason: a terminal record written before the schema moved
		// (done, say) would otherwise leave it done with no scenario to
		// merge results against.
		if sw == nil || !rec.State.terminal() || sw.Spec.Scenario == nil {
			return nil
		}
		sw.mu.Lock()
		sw.state = rec.State
		sw.errMsg = rec.Error
		sw.mu.Unlock()
	}
	return nil
}

// bumpSeq keeps the ID counter above every replayed ID so restarts
// never reuse one.
func (st *Store) bumpSeq(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "sweep-%d", &n); err == nil && n > st.seq {
		st.seq = n
	}
}

// appendRecord WAL-appends one record.
func (st *Store) appendRecord(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: wal record encode: %w", err)
	}
	return st.wal.Append(payload)
}

// Submit validates raw spec bytes, makes the submission durable, and
// queues the sweep. The spec is rejected with *SpecError on schema or
// validation failures and with ErrQueueFull under backpressure.
func (st *Store) Submit(raw []byte) (*Sweep, error) {
	spec, err := ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pending) >= st.QueueBound {
		return nil, ErrQueueFull
	}
	st.seq++
	id := fmt.Sprintf("sweep-%06d", st.seq)
	if err := st.appendRecord(walRecord{Kind: "sweep", ID: id, Spec: spec.Raw}); err != nil {
		st.seq--
		return nil, err
	}
	sw := newSweep(id, spec)
	st.sweeps[id] = sw
	st.byAge = append(st.byAge, sw)
	st.pending = append(st.pending, sw)
	st.wakeSupervisor()
	return sw, nil
}

func (st *Store) wakeSupervisor() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// NextPending blocks until a sweep is ready to run (marking it running)
// or ctx is done. Cancelled-while-queued sweeps are skipped.
func (st *Store) NextPending(ctx context.Context) (*Sweep, bool) {
	for {
		st.mu.Lock()
		for len(st.pending) > 0 {
			sw := st.pending[0]
			st.pending = st.pending[1:]
			sw.mu.Lock()
			runnable := sw.state == StatePending
			if runnable {
				sw.state = StateRunning
				sw.notifyLocked()
			}
			sw.mu.Unlock()
			if runnable {
				st.mu.Unlock()
				return sw, true
			}
		}
		st.mu.Unlock()
		select {
		case <-st.wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// QueueDepth returns the number of queued (not yet running) sweeps.
func (st *Store) QueueDepth() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pending)
}

// Get returns a sweep by ID.
func (st *Store) Get(id string) (*Sweep, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sw, ok := st.sweeps[id]
	return sw, ok
}

// all returns the stored sweeps in submission order without copying:
// byAge only ever grows by append, so the header taken under the store
// lock stays valid while the caller reads the sweeps outside it.
func (st *Store) all() []*Sweep {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.byAge
}

// List snapshots every sweep's status, sorted by ID.
func (st *Store) List() []Status {
	sweeps := st.all()
	out := make([]Status, 0, len(sweeps))
	for _, sw := range sweeps {
		out = append(out, sw.Status())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tally counts the stored sweeps in each of sweepStates (same order) and
// sums their completed replications. It builds no Status and copies no
// slice, so the daemon gauges that call it after every replication cost
// no garbage.
func (st *Store) Tally() (byState [len(sweepStates)]int, completed int) {
	for _, sw := range st.all() {
		sw.mu.Lock()
		for i, s := range sweepStates {
			if sw.state == s {
				byState[i]++
			}
		}
		completed += len(sw.order)
		sw.mu.Unlock()
	}
	return byState, completed
}

// CompleteRep makes one replication's output durable and visible. It is
// called from worker goroutines; the WAL serializes appends internally.
func (st *Store) CompleteRep(sw *Sweep, idx int, out []byte) error {
	if err := st.appendRecord(walRecord{Kind: "rep", ID: sw.ID, Rep: idx, Out: out}); err != nil {
		return err
	}
	sw.mu.Lock()
	if sw.completeLocked(idx, out) {
		sw.notifyLocked()
	}
	sw.mu.Unlock()
	return nil
}

// Finish logs and applies a terminal transition. Demote (state
// StatePending) is the drain path: in-memory only, nothing logged.
func (st *Store) Finish(sw *Sweep, state SweepState, errMsg string) error {
	if state.terminal() {
		if err := st.appendRecord(walRecord{Kind: "state", ID: sw.ID, State: state, Error: errMsg}); err != nil {
			return err
		}
	}
	sw.mu.Lock()
	sw.state = state
	sw.errMsg = errMsg
	sw.cancel = nil
	sw.notifyLocked()
	sw.mu.Unlock()
	return nil
}

// Cancel requests cancellation: queued sweeps transition immediately,
// running sweeps get their execution context cancelled (the supervisor
// then records the terminal state). Terminal sweeps return false.
func (st *Store) Cancel(sw *Sweep) (bool, error) {
	sw.mu.Lock()
	state := sw.state
	cancel := sw.cancel
	sw.mu.Unlock()
	switch state {
	case StatePending:
		return true, st.Finish(sw, StateCancelled, "cancelled while queued")
	case StateRunning:
		if cancel != nil {
			cancel(errSweepCancelled)
		}
		return true, nil
	default:
		return false, nil
	}
}

// errSweepCancelled is the cancellation cause DELETE injects, letting
// the supervisor distinguish "user cancelled" from "daemon draining".
var errSweepCancelled = fmt.Errorf("fleet: sweep cancelled")

// Close closes the WAL; in-flight appends fail afterwards.
func (st *Store) Close() error {
	return st.wal.Close()
}

// WALStats reports (records, bytes) for metrics.
func (st *Store) WALStats() (int, int64) {
	return st.wal.Records(), st.wal.Size()
}
