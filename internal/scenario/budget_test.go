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
		name string
		sc   *Scenario
	}{
		{"flap", New("flap", 1e9).Flap(plc, 0, 1, 1)},
		{"drift", New("drift", 100).Drift(plc, 1e-9, 0.1, 0, 0)},
		{"poisson", New("poisson", 1e3).PoissonFlows(1e6, 1, "s", "d")},
		{"gray", New("gray", 1e9).GrayLoss(plc, 0.5, 0, 1, 1)},
		// Every crowd flow but a few lands past the end and is dropped:
		// the budget counts draws, so the loop still stops.
		{"crowd", New("crowd", 10).FlashCrowd(10-1e-9, 0, 1<<40, 1e9, 1, "s", "d")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, _, _ := twoRouteNet(t)
			_, err := Bind(node.NewEmulation(net, node.Config{}, 1), c.sc, 7, Options{})
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
	fits := New("fits", maxTimelineEvents+0.5).Drift(plc, 1, 0.1, 0, 0)
	if got := len(mustExpand(t, fits, net, 3)); got != maxTimelineEvents {
		t.Fatalf("expanded %d events, want %d", got, maxTimelineEvents)
	}
	over := New("over", maxTimelineEvents+1.5).Drift(plc, 1, 0.1, 0, 0)
	if _, err := expandProcesses(over, net, 3); err == nil {
		t.Fatalf("%d drift steps expanded without error", maxTimelineEvents+1)
	}
}
