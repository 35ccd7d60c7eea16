package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
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
//
// The "-wifi" pins run SP-WiFi, MP-WiFi and MP-mWiFi instead, so the
// single- and dual-WiFi views of a custom topology
// (TopologySpec.buildCustom) are pinned too; recorded from commit
// 4989773.
//
// grayfail.json is the one shipped scenario with gray-loss and
// flash-crowd processes and group events, so its pins hold those paths
// of the scenario engine; recorded from commit dff254e.
var scenarioPins = []struct {
	name     string
	duration float64
	schemes  []core.Scheme
	sha256   string
}{
	{name: "flaps.json", duration: 60, schemes: hybridSchemes, sha256: "d1643bc6f42ac10d57bde4a7ad1af45adb88899651c6902dd4eb36ce550f1c04"},
	{name: "clusters.json", duration: 30, schemes: hybridSchemes, sha256: "68436aae4a678a78907b2a70526244abe00109eb24e059df332dd06ce31382b0"},
	{name: "flaps.json-wifi", duration: 60, schemes: wifiSchemes, sha256: "a87a25b821110f7e5fd5c4278dce772f06d8e0a5abf86fc85274decdc0a1168c"},
	{name: "clusters.json-wifi", duration: 30, schemes: wifiSchemes, sha256: "ab41e0d15d99e6bba674d2d2793cdfa2c4ff5296e6974b66bc8ac3f62ba47e20"},
	{name: "grayfail.json", duration: 60, schemes: hybridSchemes, sha256: "8f4cb1f385ba778d4a4fc4831a711b0be4a834ca8d220d7a20f6af27c9be3b10"},
	{name: "grayfail.json-wifi", duration: 60, schemes: wifiSchemes, sha256: "1cda291aba335be47604b2198f55fdcbfde12f177e16c62a7145a6e10a9f7c2e"},
}

var (
	hybridSchemes = []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWoCC}
	wifiSchemes   = []core.Scheme{core.SchemeSPWiFi, core.SchemeMPWiFi, core.SchemeMPmWiFi}
)

func TestScenarioDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("pins are for linux/amd64, this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	for _, pin := range scenarioPins {
		t.Run(pin.name, func(t *testing.T) {
			t.Parallel()
			sc, err := scenario.Load("../../examples/scenarios/" + strings.TrimSuffix(pin.name, "-wifi"))
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration = pin.duration
			res := must(ChurnFailoverCtx(context.Background(), sc, ChurnConfig{
				Seed: 3, Runs: 2, Delta: 0.05, ManageRoutes: true, Invariants: true,
				Schemes: pin.schemes,
			}))
			h := sha256.New()
			if err := json.NewEncoder(h).Encode(res); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha256 {
				t.Errorf("%s (%g s, seed 3): sha256 %s, pinned %s", pin.name, pin.duration, got, pin.sha256)
			}
		})
	}
}

// testbedPins are sha256 digests of `empower-testbed -fig F -duration 4
// -pairs 2 -flows 2 -runs 1 -seed 3 -json` (default δ) for the
// §6 testbed figures and Table 1 (-table 1), recorded from the binary of
// commit d998428. At these sizes every figure's emulations are seconds
// long, so the pins hold the MAC, agent and controller layers under each
// figure's own workload — paired flows, TCP, downloads — to that commit's
// bytes. Table 1 takes most of the time and runs outside -short only.
// linux/amd64 only, like simPins.
var testbedPins = []struct {
	fig    string
	sha256 string
}{
	{fig: "9", sha256: "e6fa743ebfa3a22322fda3ce6318fe6c534de6fdde304a1b66dfff03f76c118c"},
	{fig: "10", sha256: "c3a712c7716a9403eb8fd1afa10c3bdef14f92eaddb244d0eb325c5ef06c9e4a"},
	{fig: "11", sha256: "d8e201a268da24060a445cf1cfbb749ee82cca22b53b1c9a0ef50ddbb055808e"},
	{fig: "table1", sha256: "37254efebe0a1ec980595e33a9eb041464234f8ffd885bdf068832bef29c49f9"},
	{fig: "12", sha256: "fb7a02e47d3ef1aa2420cb0d08e088ca132d959193a181be9251998e690919d8"},
	{fig: "13", sha256: "9d8ad05dc7c495dfd8ca93f08fd1aabd115b745a81940169aa434b290de79ffc"},
}

func TestTestbedFigureDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("pins are for linux/amd64, this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	const seed = 3
	cfg := TestbedConfig{Seed: seed, Duration: 4, Pairs: 2, Flows: 2, Repeats: 1, Delta: 0.05}
	ctx := context.Background()
	for _, pin := range testbedPins {
		t.Run("fig="+pin.fig, func(t *testing.T) {
			if pin.fig == "table1" && testing.Short() {
				t.Skip("Table 1 is the slow one")
			}
			t.Parallel()
			var result any
			switch pin.fig {
			case "9":
				result = must(Figure9(cfg))
			case "10":
				result = must(Figure10Ctx(ctx, cfg))
			case "11":
				result = must(Figure11Ctx(ctx, cfg))
			case "table1":
				result = must(Table1Ctx(ctx, cfg))
			case "12":
				result = must(Figure12Ctx(ctx, cfg))
			case "13":
				result = must(Figure13Ctx(ctx, cfg))
			}
			// cmd/empower-testbed's -json envelope, field for field.
			h := sha256.New()
			if err := json.NewEncoder(h).Encode(struct {
				Figure string `json:"figure"`
				Seed   int64  `json:"seed"`
				Result any    `json:"result"`
			}{pin.fig, seed, result}); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha256 {
				t.Errorf("empower-testbed %s at the pinned sizes: sha256 %s, pinned %s", pin.fig, got, pin.sha256)
			}
		})
	}
}
