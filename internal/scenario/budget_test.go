package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
)

// TestHostileTimelineFailsBind: a timeline whose size the declared
// duration and means put beyond maxTimelineEvents fails Bind with an
// error naming the budget, instead of expanding until memory runs out.
func TestHostileTimelineFailsBind(t *testing.T) {
	plc := LinkRef{From: "s", To: "d", Tech: graph.TechPLC.String()}
	cases := []struct {
		name     string
		duration float64
		process  Process
	}{
		{"flap", 1e9, Process{Kind: ProcFlap, Link: &plc, DownMean: 1, UpMean: 1}},
		{"drift", 100, Process{Kind: ProcDrift, Link: &plc, Interval: 1e-9, Std: 0.1}},
		{"poisson", 1e3, Process{Kind: ProcPoissonFlows, Rate: 1e6, HoldMean: 1, Src: "s", Dst: "d"}},
		{"gray", 1e9, Process{Kind: ProcGrayLoss, Link: &plc, Loss: 0.5, DownMean: 1, UpMean: 1}},
		// Every crowd flow but a few lands past the end and is dropped:
		// the budget counts draws, so the loop still stops.
		{"crowd", 10, Process{Kind: ProcFlashCrowd, FirstAt: 10 - 1e-9, Count: 1 << 40, Spread: 1e9, HoldMean: 1, Src: "s", Dst: "d"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, _, _ := twoRouteNet(t)
			sc := &Scenario{Name: c.name, Duration: c.duration, Processes: []Process{c.process}}
			_, err := Bind(node.NewEmulation(net, node.Config{}, 1), sc, 7, Options{})
			want := fmt.Sprintf("budget of %d timeline events", maxTimelineEvents)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Bind error %v, want one naming the %q", err, want)
			}
		})
	}
}

// TestTimelineBudgetBoundary pins where the budget bites: a drift
// process realizes one event per interval, so a run that fits exactly
// maxTimelineEvents steps binds, and one step more does not.
func TestTimelineBudgetBoundary(t *testing.T) {
	net, _, _ := twoRouteNet(t)
	plc := LinkRef{From: "s", To: "d", Tech: graph.TechPLC.String()}
	drift := []Process{{Kind: ProcDrift, Link: &plc, Interval: 1, Std: 0.1}}
	fits := &Scenario{Name: "fits", Duration: maxTimelineEvents + 0.5, Processes: drift}
	if got := len(mustExpand(t, fits, net, 3)); got != maxTimelineEvents {
		t.Fatalf("expanded %d events, want %d", got, maxTimelineEvents)
	}
	over := &Scenario{Name: "over", Duration: maxTimelineEvents + 1.5, Processes: drift}
	if _, err := expandProcesses(over, net, 3); err == nil {
		t.Fatalf("%d drift steps expanded without error", maxTimelineEvents+1)
	}
}
