package obs

import (
	"fmt"
	"strings"
)

// RecKind classifies one flight-recorder record.
type RecKind uint8

// Record kinds. The enum is dense so kind names live in a fixed array
// and formatting needs no map.
const (
	// RecTxStart: a MAC transmission started (A = link, V = frame bits).
	RecTxStart RecKind = iota
	// RecDeliver: a frame crossed a link (A = link, V = frame bits).
	RecDeliver
	// RecDrop: a frame was lost (A = link, B = DropReason, V = bits).
	RecDrop
	// RecTimerFire: an engine timer fired (no operands; At carries the
	// virtual time, which is the payload).
	RecTimerFire
	// RecReroute: a route manager swapped a flow's routes (A = flow ID,
	// B = new route count).
	RecReroute
	// RecScenarioEvent: a scenario timeline event applied (A = event
	// kind ordinal, B = subject link or node, -1 when neither).
	RecScenarioEvent
	// RecWindowBarrier: an Emulation.Run brought this domain to the
	// run's target time, which every domain reaches (A is part of the
	// trace format and always 0: closed domains exchange no events).
	RecWindowBarrier
	// NumRecKinds sizes dense per-kind tables.
	NumRecKinds
)

var recKindNames = [NumRecKinds]string{
	"tx-start", "deliver", "drop", "timer-fire", "reroute", "scenario-event", "window-barrier",
}

func (k RecKind) String() string {
	if int(k) < len(recKindNames) {
		return recKindNames[k]
	}
	return "unknown"
}

// Record is one compact flight-recorder entry: the virtual time, a kind,
// two small operands and one value. Records live inline in the ring —
// writing one is a single indexed struct store.
type Record struct {
	At   float64
	Kind RecKind
	A, B int32
	V    float64
}

// Recorder is a fixed-size ring of Records with a single writer (the
// owning domain engine's goroutine). The ring never grows after New, so
// a record costs one index write and zero allocations; when full it
// overwrites the oldest entry, keeping the most recent window — exactly
// what a post-mortem wants.
type Recorder struct {
	buf  []Record
	mask uint64
	n    uint64 // total records ever written
}

// NewRecorder builds a recorder holding `size` records (rounded up to a
// power of two, minimum 64).
func NewRecorder(size int) *Recorder {
	n := 64
	for n < size {
		n *= 2
	}
	return &Recorder{buf: make([]Record, n), mask: uint64(n - 1)}
}

// Record appends one entry — the hot-path write.
func (r *Recorder) Record(at float64, kind RecKind, a, b int32, v float64) {
	r.buf[r.n&r.mask] = Record{At: at, Kind: kind, A: a, B: b, V: v}
	r.n++
}

// Total returns the number of records ever written (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 { return r.n }

// Cap returns the ring capacity in records.
func (r *Recorder) Cap() int { return len(r.buf) }

// Tail returns a copy of the most recent min(n, held) records, oldest
// first. It allocates and is meant for post-run dumps, not hot paths.
func (r *Recorder) Tail(n int) []Record {
	held := r.n
	if held > uint64(len(r.buf)) {
		held = uint64(len(r.buf))
	}
	if uint64(n) < held {
		held = uint64(n)
	}
	out := make([]Record, held)
	for i := uint64(0); i < held; i++ {
		out[i] = r.buf[(r.n-held+i)&r.mask]
	}
	return out
}

// FormatRecord renders one record as a compact text line.
func FormatRecord(rec Record) string {
	switch rec.Kind {
	case RecTxStart, RecDeliver:
		return fmt.Sprintf("t=%.6f %s link=%d bits=%g", rec.At, rec.Kind, rec.A, rec.V)
	case RecDrop:
		return fmt.Sprintf("t=%.6f %s link=%d reason=%d bits=%g", rec.At, rec.Kind, rec.A, rec.B, rec.V)
	case RecReroute:
		return fmt.Sprintf("t=%.6f %s flow=%d routes=%d", rec.At, rec.Kind, rec.A, rec.B)
	case RecScenarioEvent:
		return fmt.Sprintf("t=%.6f %s kind=%d subject=%d", rec.At, rec.Kind, rec.A, rec.B)
	case RecWindowBarrier:
		return fmt.Sprintf("t=%.6f %s drained=%d", rec.At, rec.Kind, rec.A)
	default:
		return fmt.Sprintf("t=%.6f %s a=%d b=%d v=%g", rec.At, rec.Kind, rec.A, rec.B, rec.V)
	}
}

// FormatTail renders the most recent n records, one line each, prefixed
// with the owning domain — the failure-message payload of the
// -invariants violation tail.
func FormatTail(domain int, recs []Record) string {
	var b strings.Builder
	for _, rec := range recs {
		fmt.Fprintf(&b, "  dom=%d %s\n", domain, FormatRecord(rec))
	}
	return b.String()
}
