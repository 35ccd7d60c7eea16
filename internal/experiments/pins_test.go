package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// simPins are sha256 digests of `empower-sim -fig F -runs N -seed 3 -json`
// (both topologies, default slots) for the §5 figures the repository
// benchmark does not run, at a seed it never uses — and for Figure 6, which
// it runs at seed 1 on one topology only — as it does Figure 4. Figures 5, 7
// and convergence were recorded from the binary of commit 4e58792, before
// the congestion controller moved its duals onto interference cells; Figure
// 6 from the binary of commit c15c5c4, before the centralized solver became
// a CSR kernel with frozen routes; Figure 4 from the binary of commit
// 8341511, before RunAppend began replaying periodic trajectories. They hold
// any later controller or solver to those commits' bytes. Like
// bench/golden.json they are for linux/amd64: float formatting is portable,
// fused multiply-add is not.
var simPins = []struct {
	fig    string
	runs   int
	sha256 string
}{
	{fig: "4", runs: 40, sha256: "829ba930f9356c6d5424133396e5415d35771c13a3e6204c94dd58105d9ebf3f"},
	{fig: "5", runs: 60, sha256: "03691947d357906aea1bd604180efe0953b4ef78560979d3f22cd4b5e7ad4c30"},
	{fig: "6", runs: 4, sha256: "29100ddf7fc4c6235e8fd1ad91854b0b43b6b1677ed822bf769d347c128264d4"},
	{fig: "7", runs: 1, sha256: "0023ea50e42e828bb2a1b3195f803543829c2c842b514d3a55259f657eda1cd0"},
	{fig: "convergence", runs: 12, sha256: "cc9f47c05474b690e90cb73bbfa36bb4889f051292d34a89518c496e160063fa"},
}

func TestSimFigureDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("pins are for linux/amd64, this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	const seed = 3
	for _, pin := range simPins {
		t.Run("fig="+pin.fig, func(t *testing.T) {
			t.Parallel()
			cfg := SimConfig{Runs: pin.runs, Seed: seed}
			h := sha256.New()
			enc := json.NewEncoder(h)
			for _, topo := range []Topo{TopoResidential, TopoEnterprise} {
				var result any
				switch pin.fig {
				case "4":
					result = must(Figure4Ctx(context.Background(), topo, cfg))
				case "5":
					result = Figure5(must(Figure4Ctx(context.Background(), topo, cfg)))
				case "6":
					result = must(Figure6Ctx(context.Background(), topo, cfg))
				case "7":
					result = must(Figure7Ctx(context.Background(), topo, cfg))
				case "convergence":
					result = must(ConvergenceCtx(context.Background(), topo, cfg))
				}
				// cmd/empower-sim's -json envelope, field for field.
				if err := enc.Encode(struct {
					Figure string `json:"figure"`
					Topo   string `json:"topo,omitempty"`
					Seed   int64  `json:"seed"`
					Result any    `json:"result"`
				}{pin.fig, topo.String(), seed, result}); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha256 {
				t.Errorf("empower-sim -fig %s -runs %d -seed %d -json: sha256 %s, pinned %s", pin.fig, pin.runs, seed, got, pin.sha256)
			}
		})
	}
}

// scenarioPins are sha256 digests of the ChurnFailoverCtx JSON for the
// shipped §6 scenarios at seed 3, cut to a short duration: two runs of
// EMPoWER, SP and SP-w/o-CC with route management, δ = 0.05 and the
// invariant checker on, so failover latencies, degraded goodput, drop
// counters and reroutes all reach the digest. Recorded from commit
// 5b127a2, before the sink's reorder buffer, the agent's flow and
// interface lookups and the delivery-log binning lost their maps and
// rescans; they hold the §6 agent layer to that commit's bytes in plain
// `go test` (bench/golden.json pins the same quantities only under the
// benchmark harness). linux/amd64 only, like simPins.
var scenarioPins = []struct {
	file     string
	duration float64
	sha256   string
}{
	{file: "flaps.json", duration: 60, sha256: "d1643bc6f42ac10d57bde4a7ad1af45adb88899651c6902dd4eb36ce550f1c04"},
	{file: "clusters.json", duration: 30, sha256: "68436aae4a678a78907b2a70526244abe00109eb24e059df332dd06ce31382b0"},
}

func TestScenarioDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("pins are for linux/amd64, this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	for _, pin := range scenarioPins {
		t.Run(pin.file, func(t *testing.T) {
			t.Parallel()
			sc, err := scenario.Load("../../examples/scenarios/" + pin.file)
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration = pin.duration
			res := must(ChurnFailoverCtx(context.Background(), sc, ChurnConfig{
				Seed: 3, Runs: 2, Delta: 0.05, ManageRoutes: true, Invariants: true,
				Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWoCC},
			}))
			h := sha256.New()
			if err := json.NewEncoder(h).Encode(res); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha256 {
				t.Errorf("%s (%g s, seed 3): sha256 %s, pinned %s", pin.file, pin.duration, got, pin.sha256)
			}
		})
	}
}
