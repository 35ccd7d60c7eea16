package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressLine renders a live one-line sweep progress display
// (done/total, reps/sec, ETA) to a terminal stream. Hook Update into
// runner.Config.OnProgress; the runner already serializes those calls,
// but ProgressLine carries its own mutex so several sweeps can share
// one line. Progress goes to stderr only — stdout stays byte-identical.
type ProgressLine struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	start   time.Time
	last    time.Time
	written bool
	now     func() time.Time // test seam
}

// NewProgressLine starts a progress line labelled label on w.
func NewProgressLine(w io.Writer, label string) *ProgressLine {
	p := &ProgressLine{w: w, label: label, now: time.Now}
	p.start = p.now()
	return p
}

// Update redraws the line for done of total replications. Redraws are
// throttled to ~10/sec except for the final update.
func (p *ProgressLine) Update(done, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	if done < total && p.written && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	p.written = true
	elapsed := now.Sub(p.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	eta := "--"
	if rate > 0 && done < total {
		eta = formatETA(float64(total-done) / rate)
	} else if done >= total {
		eta = "done"
	}
	fmt.Fprintf(p.w, "\r%-12s %4d/%d  %6.1f reps/s  ETA %s ", p.label, done, total, rate, eta)
}

// Finish terminates the line with a newline if anything was drawn.
func (p *ProgressLine) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.written {
		fmt.Fprintln(p.w)
		p.written = false
	}
}

func formatETA(sec float64) string {
	if sec < 0 {
		sec = 0
	}
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	}
}
