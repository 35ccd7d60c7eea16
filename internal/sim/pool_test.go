package sim

import (
	"math"
	"math/rand"
	"testing"
)

// naiveEngine is an unpooled, obviously-correct reference: live events
// sit in a flat slice and the next one is found by a linear scan for the
// smallest (at, seq). It exists only to pin the pooled engine's
// semantics event for event.
type naiveEvent struct {
	id  int
	at  float64
	seq uint64
}

type naiveEngine struct {
	now    float64
	seq    uint64
	events []naiveEvent
}

func (n *naiveEngine) schedule(id int, delay float64) {
	if delay < 0 {
		delay = 0
	}
	n.seq++
	n.events = append(n.events, naiveEvent{id: id, at: n.now + delay, seq: n.seq})
}

func (n *naiveEngine) cancel(id int) {
	for i := range n.events {
		if n.events[i].id == id {
			n.events[i] = n.events[len(n.events)-1]
			n.events = n.events[:len(n.events)-1]
			return
		}
	}
}

// fireNext removes and returns the earliest live event, advancing the
// clock to it.
func (n *naiveEngine) fireNext() (id int, at float64, ok bool) {
	best := -1
	for i := range n.events {
		ev := &n.events[i]
		if best < 0 || ev.at < n.events[best].at || (ev.at == n.events[best].at && ev.seq < n.events[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	ev := n.events[best]
	n.events[best] = n.events[len(n.events)-1]
	n.events = n.events[:len(n.events)-1]
	n.now = ev.at
	return ev.id, ev.at, true
}

// checkHeap asserts the engine heap's structural invariants: every
// timer's index is its entry's position, every entry is live, and no
// entry sorts before its parent.
func checkHeap(t *testing.T, e *Engine, op string) {
	t.Helper()
	for i := range e.heap {
		ent := &e.heap[i]
		if ent.t.index != i {
			t.Fatalf("after %s: timer at heap position %d has index %d", op, i, ent.t.index)
		}
		if ent.t.fn == nil && ent.t.hfn == nil {
			t.Fatalf("after %s: dead entry at heap position %d", op, i)
		}
		if i > 0 && ent.before(&e.heap[(i-1)/2]) {
			t.Fatalf("after %s: entry %d (at %v seq %d) sorts before its parent", op, i, ent.at, ent.seq)
		}
	}
}

// storm drives the pooled engine and the naive reference in lockstep
// through one deterministic random script of schedule/cancel/fire
// decisions. The pooled engine's firing drives the script; every fired
// event must be the one the reference fires next, at the same virtual
// time. Cancel victims are picked by heap position — the root, the last
// entry, or an interior entry — so every removal path of the heap is
// taken, and the structural invariants are checked after every
// operation.
type storm struct {
	t        *testing.T
	rng      *rand.Rand
	e        Engine
	n        naiveEngine
	refs     map[int]TimerRef
	idOf     map[*Timer]int // scheduled timer slot -> storm id
	nextID   int
	depth    int // heap size the script hovers around
	maxSpawn int
	fired    int
	peak     int
	// Interior cancels whose replacement entry had to move up / stay or
	// move down, predicted from the keys before the removal.
	siftedUp, siftedDown int
}

func (s *storm) grant(delay float64) {
	id := s.nextID
	s.nextID++
	s.refs[id] = s.e.Schedule(delay, func() { s.handler(id) })
	s.idOf[s.refs[id].t] = id
	s.n.schedule(id, delay)
	if len(s.e.heap) > s.peak {
		s.peak = len(s.e.heap)
	}
	checkHeap(s.t, &s.e, "schedule")
}

func (s *storm) cancelAt(pos int) {
	h := s.e.heap
	if last := len(h) - 1; pos > 0 && pos < last {
		if h[last].before(&h[(pos-1)/2]) {
			s.siftedUp++
		} else {
			s.siftedDown++
		}
	}
	id := s.idOf[h[pos].t]
	s.refs[id].Cancel()
	delete(s.refs, id)
	s.n.cancel(id)
	checkHeap(s.t, &s.e, "cancel")
	if s.e.Pending() != len(s.n.events) {
		s.t.Fatalf("after cancel: Pending = %d, reference holds %d", s.e.Pending(), len(s.n.events))
	}
}

// handler is the body every scheduled timer runs: check against the
// reference, maybe spawn, maybe cancel. Delays are quantized so
// simultaneous events (the FIFO tie-break) occur constantly.
func (s *storm) handler(id int) {
	checkHeap(s.t, &s.e, "fire")
	wantID, wantAt, ok := s.n.fireNext()
	if !ok || wantID != id || wantAt != s.e.Now() {
		s.t.Fatalf("event %d diverged: pooled (id %d, t %v), reference (id %d, t %v, ok %v)",
			s.fired, id, s.e.Now(), wantID, wantAt, ok)
	}
	s.fired++
	delete(s.refs, id)
	if s.nextID < s.maxSpawn {
		// Refill towards the target depth, then hover around it.
		k := s.rng.Intn(3)
		if len(s.e.heap) < s.depth {
			k++
		}
		for ; k > 0; k-- {
			s.grant(float64(s.rng.Intn(8)) * 0.25)
		}
	}
	if n := len(s.e.heap); n > 0 && s.rng.Float64() < 0.35 {
		switch s.rng.Intn(4) {
		case 0:
			s.cancelAt(0)
		case 1:
			s.cancelAt(n - 1)
		default:
			s.cancelAt(s.rng.Intn(n))
		}
	}
}

// TestPoolMatchesNaiveReference is the timer-pool and heap property
// test: a cancel/reschedule/fire storm over heaps of one to several
// thousand entries, with mass ties on the firing time, must fire in
// exactly the order the naive reference fires, event for event, at the
// same virtual times, with Timer.index tracking every entry's position
// throughout.
func TestPoolMatchesNaiveReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 50, 700, 5000} {
		for _, seed := range []int64{1, 7, 42, 12345} {
			spawn := 4000
			if size > 50 {
				// The reference and the checks are O(size) per operation:
				// one seed, and just enough churn at full depth.
				if seed != 1 {
					continue
				}
				spawn = 1500
			}
			s := &storm{
				t: t, rng: rand.New(rand.NewSource(seed)),
				refs: map[int]TimerRef{}, idOf: map[*Timer]int{},
				depth: size, maxSpawn: size + spawn,
			}
			for i := 0; i < size; i++ {
				s.grant(float64(i%10) * 0.5)
			}
			for {
				s.e.RunUntilIdle()
				if s.nextID >= s.maxSpawn {
					break
				}
				// A tiny heap can cancel its last entry and die out.
				s.grant(0.5)
			}
			if len(s.n.events) != 0 {
				t.Fatalf("size %d seed %d: reference still holds %d events after idle", size, seed, len(s.n.events))
			}
			if s.fired < 1000 {
				t.Fatalf("size %d seed %d: storm too small to be meaningful (%d events)", size, seed, s.fired)
			}
			if s.peak < size {
				t.Fatalf("size %d seed %d: heap peaked at %d", size, seed, s.peak)
			}
			if size >= 50 && (s.siftedUp == 0 || s.siftedDown == 0) {
				t.Fatalf("size %d seed %d: interior cancels sifted up %d times, down %d — both paths must run",
					size, seed, s.siftedUp, s.siftedDown)
			}
			if len(s.e.heap) != 0 {
				t.Fatalf("size %d seed %d: %d timers left in heap after idle", size, seed, len(s.e.heap))
			}
		}
	}
}

// TestStaleCancelAfterRecycle is the regression test for the pool's
// generation counters: a TimerRef held across its timer's firing must
// not cancel the recycled slot's next occupant.
func TestStaleCancelAfterRecycle(t *testing.T) {
	var e Engine
	a := e.Schedule(1, func() {})
	e.RunUntilIdle()

	firedB := false
	b := e.Schedule(1, func() { firedB = true })
	if a.t != b.t {
		t.Fatalf("test setup broken: b did not reuse a's slot (pool order changed?)")
	}
	a.Cancel() // stale handle: must be a no-op
	if !b.Active() {
		t.Fatal("stale Cancel deactivated the slot's new occupant")
	}
	e.RunUntilIdle()
	if !firedB {
		t.Fatal("stale Cancel killed the recycled slot's timer")
	}
	// Also stale after cancel (not just after fire).
	c := e.Schedule(1, func() {})
	c.Cancel()
	firedD := false
	d := e.Schedule(1, func() { firedD = true })
	if c.t != d.t {
		t.Fatalf("test setup broken: d did not reuse c's slot")
	}
	c.Cancel()
	e.RunUntilIdle()
	if !firedD {
		t.Fatal("double Cancel through a stale handle killed the new occupant")
	}
}

// TestHeapEntriesAlwaysLive pins the invariant behind the O(1)
// Pending/NextEventTime: Cancel removes timers from the heap
// immediately, so every heap entry has a live handler.
func TestHeapEntriesAlwaysLive(t *testing.T) {
	var e Engine
	rng := rand.New(rand.NewSource(3))
	var refs []TimerRef
	for i := 0; i < 500; i++ {
		refs = append(refs, e.Schedule(rng.Float64()*10, func() {}))
	}
	for i := 0; i < 200; i++ {
		refs[rng.Intn(len(refs))].Cancel()
	}
	live := 0
	for _, r := range refs {
		if r.Active() {
			live++
		}
	}
	if e.Pending() != live {
		t.Fatalf("Pending = %d, want %d live timers", e.Pending(), live)
	}
	min := math.Inf(1)
	for _, ent := range e.heap {
		if ent.t.fn == nil && ent.t.hfn == nil {
			t.Fatal("heap contains a dead entry; Pending/NextEventTime invariant broken")
		}
		if ent.at < min {
			min = ent.at
		}
	}
	if e.NextEventTime() != min {
		t.Fatalf("NextEventTime = %v, want %v", e.NextEventTime(), min)
	}
	e.Run(5)
	for _, ent := range e.heap {
		if ent.t.fn == nil && ent.t.hfn == nil {
			t.Fatal("dead heap entry after partial run")
		}
	}
}

// TestAllocsScheduleFireSteadyState: the schedule→fire cycle must not
// allocate once the pool is warm, in both the closure-free and the
// pre-built-closure form.
func TestAllocsScheduleFireSteadyState(t *testing.T) {
	var e Engine
	count := 0
	tick := func(any) { count++ }
	// Warm the pool.
	e.ScheduleFunc(1, tick, nil)
	e.RunUntilIdle()
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleFunc(1, tick, nil)
		e.RunUntilIdle()
	}); avg != 0 {
		t.Errorf("ScheduleFunc steady state allocates %v per cycle, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		r := e.ScheduleFunc(1, tick, nil)
		r.Cancel()
	}); avg != 0 {
		t.Errorf("schedule+cancel steady state allocates %v per cycle, want 0", avg)
	}
}
