package sim

import (
	"math"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if n := e.RunUntilIdle(); n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	timer := e.Schedule(1, func() { fired = true })
	timer.Cancel()
	e.RunUntilIdle()
	if fired {
		t.Error("cancelled timer fired")
	}
	// Cancel after fire is a no-op.
	timer2 := e.Schedule(1, func() {})
	e.RunUntilIdle()
	timer2.Cancel()
}

func TestRunStopsAtLimit(t *testing.T) {
	var e Engine
	var fired []float64
	for _, d := range []float64{0.5, 1.0, 1.5, 2.0} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	n := e.Run(1.0)
	if n != 2 {
		t.Errorf("processed %d, want 2", n)
	}
	if e.Now() != 1.0 {
		t.Errorf("Now = %v, want 1.0", e.Now())
	}
	n = e.Run(5)
	if n != 2 {
		t.Errorf("second run processed %d, want 2", n)
	}
}

func TestRunAdvancesClockWhenIdle(t *testing.T) {
	var e Engine
	e.Run(10)
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(1, rec)
	e.RunUntilIdle()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	e.Run(2)
	fired := math.NaN()
	e.Schedule(-5, func() { fired = e.Now() })
	e.RunUntilIdle()
	if fired != 2 {
		t.Errorf("negative-delay event fired at %v, want 2", fired)
	}
}

func TestAtClampsToPast(t *testing.T) {
	var e Engine
	e.Run(3)
	fired := math.NaN()
	e.At(1, func() { fired = e.Now() })
	e.RunUntilIdle()
	if fired != 3 {
		t.Errorf("past event fired at %v, want 3", fired)
	}
}

func TestPeriodic(t *testing.T) {
	var e Engine
	count := 0
	p := e.Every(1, func() { count++ })
	e.Run(5.5)
	if count != 5 {
		t.Errorf("periodic fired %d times, want 5", count)
	}
	p.Stop()
	e.Run(10)
	if count != 5 {
		t.Errorf("periodic fired after Stop: %d", count)
	}
}

func TestPeriodicStopInsideHandler(t *testing.T) {
	var e Engine
	count := 0
	var p *Periodic
	p = e.Every(1, func() {
		count++
		if count == 3 {
			p.Stop()
		}
	})
	e.Run(10)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestPendingAndNextEventTime(t *testing.T) {
	var e Engine
	if !math.IsInf(nextAt(&e), 1) {
		t.Error("empty engine should have no next event")
	}
	a := e.Schedule(2, func() {})
	e.Schedule(5, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	if nextAt(&e) != 2 {
		t.Errorf("next event at %v, want 2", nextAt(&e))
	}
	a.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d, want 1", e.Pending())
	}
	if nextAt(&e) != 5 {
		t.Errorf("next event after cancel at %v, want 5", nextAt(&e))
	}
}

// TestCancelRemovesFromHeap pins the heap-hygiene contract of Cancel:
// cancelling a timer removes it from the heap immediately (via the
// tracked index) instead of leaving a dead entry behind until it is
// popped. Scenario engines that schedule and cancel many flap timers
// would otherwise bloat the heap with corpses.
func TestCancelRemovesFromHeap(t *testing.T) {
	var e Engine
	var timers []TimerRef
	for i := 0; i < 100; i++ {
		i := i
		timers = append(timers, e.Schedule(float64(i+1), func() { _ = i }))
	}
	if len(e.heap) != 100 {
		t.Fatalf("heap length %d after scheduling, want 100", len(e.heap))
	}
	// Cancel from the middle, the head, and the tail.
	for _, i := range []int{50, 0, 99, 25, 75} {
		timers[i].Cancel()
	}
	if len(e.heap) != 95 {
		t.Fatalf("heap length %d after 5 cancels, want 95", len(e.heap))
	}
	// Double-cancel is a no-op.
	timers[50].Cancel()
	if len(e.heap) != 95 {
		t.Fatalf("heap length %d after double cancel, want 95", len(e.heap))
	}
	// The survivors still fire, in order.
	fired := e.RunUntilIdle()
	if fired != 95 {
		t.Fatalf("fired %d timers, want 95", fired)
	}
	if len(e.heap) != 0 {
		t.Fatalf("heap length %d after drain, want 0", len(e.heap))
	}
	// Cancelling a fired timer is a no-op.
	timers[1].Cancel()
}

// TestCancelDuringHandler cancels a pending timer from inside another
// handler at the same timestamp; the heap must stay consistent and the
// cancelled timer must not fire.
func TestCancelDuringHandler(t *testing.T) {
	var e Engine
	firedB := false
	var b TimerRef
	e.Schedule(1, func() { b.Cancel() }) // same time, scheduled first: fires first (FIFO)
	b = e.Schedule(1, func() { firedB = true })
	e.RunUntilIdle()
	if firedB {
		t.Fatal("timer fired despite being cancelled by an earlier same-time handler")
	}
	if len(e.heap) != 0 {
		t.Fatalf("heap length %d after run, want 0", len(e.heap))
	}
}

// nextAt is the time of the earliest pending event, +Inf when there is
// none: the heap root, since Cancel leaves no dead entry behind.
func nextAt(e *Engine) float64 {
	if len(e.heap) == 0 {
		return math.Inf(1)
	}
	return e.heap[0].at
}
