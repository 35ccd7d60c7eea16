// Package sim provides the deterministic discrete-event engine that the
// packet-level simulator and the testbed emulation run on: a virtual
// clock, a cancellable timer heap, and periodic tasks. The paper's Matlab
// simulator and Click testbed are both reproduced on top of this engine —
// the former with the simplified CSMA/CA MAC of §5.1, the latter with the
// full EMPoWER node agents of §6.1.
//
// The engine is single-threaded by design: every event handler runs to
// completion before the next event fires, which keeps runs reproducible
// from a seed without locking.
//
// The pending set is a hand-written binary heap over inline
// (at, seq, *Timer) entries: comparisons read the key from the entry
// itself instead of chasing a pointer per probe, and there is no
// interface dispatch per sift step. (at, seq) is a strict total order —
// seq is unique — so the pop sequence is the sorted order of the keys
// whatever the heap's internal arrangement.
//
// Timers are pooled on a per-engine free list: steady-state workloads
// (per-packet send timers, MAC transmission completions) schedule and
// fire millions of timers without a single heap allocation. A fired or
// cancelled Timer returns to the pool and may be handed out again, so
// callers never hold a *Timer — they hold a TimerRef, a value handle
// carrying the generation at grant time. Cancelling a TimerRef whose
// timer was recycled is a no-op instead of killing the slot's new
// occupant.
package sim

import (
	"math"

	"repro/internal/obs"
)

// Timer is a scheduled callback slot. Timers are owned by the engine's
// pool; user code interacts with them through TimerRef handles.
type Timer struct {
	// gen increments every time the slot is recycled; TimerRef handles
	// carry the generation at grant time so stale handles go inert.
	gen uint64
	// Exactly one of fn (closure form) or hfn (closure-free form) is set
	// while the timer is scheduled.
	fn    func()
	hfn   func(any)
	arg   any
	index int     // position in the owner's heap, -1 when fired or cancelled
	owner *Engine // the engine whose pool owns this slot
}

// TimerRef is a handle to a scheduled timer. The zero value is inert:
// Cancel on it is a no-op. Handles are plain values — storing or copying
// them never allocates, which is what lets per-packet timers be
// rescheduled on the hot path for free.
type TimerRef struct {
	t   *Timer
	gen uint64
}

// Cancel prevents the timer from firing and removes it from the engine's
// heap immediately (via the tracked heap index), returning the slot to
// the pool. Cancelling a fired, already-cancelled, or zero handle is a
// no-op — in particular, a handle held across the timer's firing does
// not cancel the slot's next occupant.
func (r TimerRef) Cancel() {
	t := r.t
	if t == nil || t.gen != r.gen || t.index < 0 {
		return
	}
	t.owner.remove(t.index)
	t.owner.recycle(t)
}

// Active reports whether the handle still refers to a scheduled timer.
func (r TimerRef) Active() bool {
	return r.t != nil && r.t.gen == r.gen && r.t.index >= 0
}

// entry is one heap slot: the ordering key inline next to the timer it
// schedules. FIFO among simultaneous events comes from seq.
type entry struct {
	at  float64
	seq uint64
	t   *Timer
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp places x at or above the hole i, moving later parents down into
// the hole; every moved timer's index follows its entry.
func (e *Engine) siftUp(i int, x entry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].t.index = i
		i = p
	}
	h[i] = x
	x.t.index = i
}

// siftDown places x at or below the hole i, moving the earlier child up
// into the hole.
func (e *Engine) siftDown(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		h[i].t.index = i
		i = c
	}
	h[i] = x
	x.t.index = i
}

// remove deletes the entry at position i: the last entry fills the hole
// and sifts whichever way its key demands (an interior removal can need
// either). The removed timer's index is left for recycle to reset.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = entry{}
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&e.heap[(i-1)/2]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// Engine is the event loop. The zero value is ready to use, starting at
// time 0.
type Engine struct {
	now   float64
	seq   uint64
	heap  []entry
	free  []*Timer // recycled timer slots
	fired uint64   // intrinsic counter: events processed so far
	rec   *obs.Recorder
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events this engine has processed — an
// intrinsic counter sampled by the observability layer at barriers.
func (e *Engine) Fired() uint64 { return e.fired }

// FreeTimers returns the current timer pool occupancy (recycled slots
// waiting for reuse).
func (e *Engine) FreeTimers() int { return len(e.free) }

// SetRecorder attaches a flight recorder; every fired event writes one
// record. A nil recorder (the default) disables recording.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Recorder returns the attached flight recorder, or nil.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Pending returns the number of scheduled timers. Cancel removes timers
// from the heap immediately, so every heap entry is live and this is
// O(1).
func (e *Engine) Pending() int { return len(e.heap) }

// NextEventTime returns the time of the earliest pending event, or +Inf
// when the queue is empty. O(1): the heap root is the earliest live
// timer (see Pending).
func (e *Engine) NextEventTime() float64 {
	if len(e.heap) == 0 {
		return math.Inf(1)
	}
	return e.heap[0].at
}

// alloc hands out a timer slot from the free list (or a fresh one).
func (e *Engine) alloc() *Timer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return t
	}
	return &Timer{owner: e}
}

// recycle returns a popped or removed slot to the pool. The generation
// bump is what invalidates outstanding TimerRef handles.
func (e *Engine) recycle(t *Timer) {
	t.gen++
	t.fn = nil
	t.hfn = nil
	t.arg = nil
	t.index = -1
	e.free = append(e.free, t)
}

// push allocates a slot at absolute time `at` with the next sequence
// number. The (at, seq) pair is assigned exactly as it always was —
// pooling recycles slots, never sequence numbers — so the heap's FIFO
// tie-break among simultaneous events is unchanged.
func (e *Engine) push(at float64) *Timer {
	if at < e.now {
		at = e.now
	}
	e.seq++
	t := e.alloc()
	e.heap = append(e.heap, entry{})
	e.siftUp(len(e.heap)-1, entry{at: at, seq: e.seq, t: t})
	return t
}

// Schedule runs fn after delay seconds of virtual time. A negative delay
// is treated as zero (fires at the current time, after currently-running
// handlers).
func (e *Engine) Schedule(delay float64, fn func()) TimerRef {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (clamped to now).
func (e *Engine) At(at float64, fn func()) TimerRef {
	t := e.push(at)
	t.fn = fn
	return TimerRef{t, t.gen}
}

// ScheduleFunc is the closure-free form of Schedule: fn is typically a
// package-level function and arg the state it operates on (a pointer
// fits in the interface without allocating). Hot paths that would
// otherwise capture a fresh closure per event — per-packet send timers,
// MAC completions — use this to stay allocation-free.
func (e *Engine) ScheduleFunc(delay float64, fn func(any), arg any) TimerRef {
	if delay < 0 {
		delay = 0
	}
	return e.AtFunc(e.now+delay, fn, arg)
}

// AtFunc is the closure-free form of At.
func (e *Engine) AtFunc(at float64, fn func(any), arg any) TimerRef {
	t := e.push(at)
	t.hfn = fn
	t.arg = arg
	return TimerRef{t, t.gen}
}

// Every schedules fn every interval seconds, starting after the first
// interval, until the returned Periodic is stopped.
func (e *Engine) Every(interval float64, fn func()) *Periodic {
	p := &Periodic{engine: e, interval: interval, fn: fn}
	p.arm()
	return p
}

// Periodic is a repeating task created by Every.
type Periodic struct {
	engine   *Engine
	interval float64
	fn       func()
	timer    TimerRef
	stopped  bool
}

// arm schedules the next firing through the closure-free path: the one
// Periodic allocation at Every covers every subsequent rearm.
func (p *Periodic) arm() {
	p.timer = p.engine.ScheduleFunc(p.interval, periodicTick, p)
}

func periodicTick(arg any) {
	p := arg.(*Periodic)
	if p.stopped {
		return
	}
	p.fn()
	if !p.stopped {
		p.arm()
	}
}

// Stop ends the periodic task.
func (p *Periodic) Stop() {
	p.stopped = true
	p.timer.Cancel()
}

// fire pops the heap root, advances the clock, recycles the slot, and
// runs the handler. The slot is recycled before the handler runs so a
// handler that immediately reschedules reuses it; any TimerRef to the
// firing timer went stale at the generation bump.
func (e *Engine) fire() {
	root := e.heap[0]
	e.remove(0)
	e.now = root.at
	e.fired++
	if e.rec != nil {
		e.rec.Record(root.at, obs.RecTimerFire, 0, 0, 0)
	}
	next := root.t
	fn, hfn, arg := next.fn, next.hfn, next.arg
	e.recycle(next)
	if hfn != nil {
		hfn(arg)
	} else if fn != nil {
		fn()
	}
}

// Run processes events until the virtual clock would pass `until`
// (inclusive), leaving later events queued. It returns the number of
// events processed.
func (e *Engine) Run(until float64) int {
	processed := 0
	for len(e.heap) > 0 && e.heap[0].at <= until {
		e.fire()
		processed++
	}
	if e.now < until {
		e.now = until
	}
	return processed
}

// RunUntilIdle processes every queued event (including ones scheduled by
// handlers) and returns the count. It guards against runaway schedules
// with a generous event budget; exceeding it panics, which in practice
// flags an accidental infinite loop in a handler.
func (e *Engine) RunUntilIdle() int {
	const budget = 50_000_000
	processed := 0
	for len(e.heap) > 0 {
		e.fire()
		processed++
		if processed > budget {
			panic("sim: event budget exceeded; runaway schedule?")
		}
	}
	return processed
}
