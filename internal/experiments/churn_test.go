package experiments

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// loadFlaps loads the shipped canonical flap scenario — tests run
// against the same file the CLI and README point at, so schema drift
// breaks loudly here.
func loadFlaps(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Load("../../examples/scenarios/flaps.json")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestChurnParallelDeterminism mirrors TestFigure4ParallelDeterminism
// for the scenario engine: the same seed and the same scenario file must
// produce bit-identical trajectories — failover latencies, goodputs,
// reroute counts, everything — at parallel=1 and parallel=8.
// reflect.DeepEqual on the full result is exact-bits comparison.
func TestChurnParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweeps emulate minutes of virtual time per replication")
	}
	sc := loadFlaps(t)
	base := ChurnConfig{
		Seed: 7, Runs: 2, ManageRoutes: true,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	}
	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8
	r1, err := ChurnFailoverCtx(context.Background(), sc, serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := ChurnFailoverCtx(context.Background(), sc, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("churn results differ across worker counts:\n  parallel=1: %+v\n  parallel=8: %+v", r1, r8)
	}
}

// TestGrayfailParallelDeterminism extends the determinism contract to
// every event and process kind this PR added: the shipped grayfail
// scenario exercises link groups (group-fail/group-recover), gray-loss
// windows, and a flash crowd, with the invariant checker attached and
// the domain-decomposed engine underneath. Same seed, parallel=1 vs parallel=8:
// bit-identical results — including the per-reason drop counters and
// the (empty) violation counts the checker adds to each row.
func TestGrayfailParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweeps emulate minutes of virtual time per replication")
	}
	sc, err := scenario.Load("../../examples/scenarios/grayfail.json")
	if err != nil {
		t.Fatal(err)
	}
	base := ChurnConfig{
		Seed: 11, Runs: 2, ManageRoutes: true, Invariants: true,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	}
	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8
	r1, err := ChurnFailoverCtx(context.Background(), sc, serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := ChurnFailoverCtx(context.Background(), sc, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("grayfail results differ across worker counts:\n  parallel=1: %+v\n  parallel=8: %+v", r1, r8)
	}
	for _, row := range r1.Rows {
		if row.Violations != 0 {
			t.Errorf("%s: invariant checker flagged %d violations on the shipped scenario", row.Scheme, row.Violations)
		}
		if row.Drops == nil {
			t.Errorf("%s: per-reason drop counters missing with invariants on", row.Scheme)
		}
	}
}

// TestChurnFailoverClaim pins the §6.1-style acceptance criterion on the
// shipped flap scenario: EMPoWER's median failover latency is finite
// (detection within the estimation timeout plus the rate shift — a
// second or so at this measurement bin), while SP-w/o-CC cannot fail
// over at all — its episodes are censored and its goodput inside the
// failure windows stays degraded near zero.
func TestChurnFailoverClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweeps emulate minutes of virtual time per replication")
	}
	sc := loadFlaps(t)
	res, err := ChurnFailoverCtx(context.Background(), sc, ChurnConfig{
		Seed: 7, Runs: 4, ManageRoutes: true, Parallel: 8,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]ChurnRow{}
	for _, row := range res.Rows {
		byScheme[row.Scheme] = row
	}
	emp := byScheme["EMPoWER"]
	if emp.Episodes == 0 {
		t.Fatal("EMPoWER saw no failure episodes; the flap process did not fire")
	}
	if emp.MedianLatency < 0 {
		t.Errorf("EMPoWER median failover latency is infinite (censored %d/%d), want finite", emp.Censored, emp.Episodes)
	}
	if emp.MedianLatency > 5 {
		t.Errorf("EMPoWER median failover latency %.2f s, want well under 5 s", emp.MedianLatency)
	}
	sp := byScheme["SP-w/o-CC"]
	if sp.Episodes == 0 {
		t.Fatal("SP-w/o-CC saw no failure episodes")
	}
	if sp.MedianLatency >= 0 {
		t.Errorf("SP-w/o-CC median failover latency %.2f s, want infinite (no alternative route)", sp.MedianLatency)
	}
	if sp.DegradedGoodput > 3 {
		t.Errorf("SP-w/o-CC goodput %.2f Mbps inside failure windows, want degraded near zero", sp.DegradedGoodput)
	}
	if emp.DegradedGoodput < 10 {
		t.Errorf("EMPoWER goodput %.2f Mbps inside failure windows, want the surviving route's worth", emp.DegradedGoodput)
	}
}

// TestChurnFlapSweepShape smoke-tests the goodput-vs-flap-rate sweep:
// result dimensions match, every cell is populated, and the w/o-CC
// single path suffers more at high flap rates than EMPoWER does.
func TestChurnFlapSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweeps emulate minutes of virtual time per replication")
	}
	sc := loadFlaps(t)
	rates := []float64{0.5, 2}
	res, _, err := ChurnFlapSweepCtx(context.Background(), sc, ChurnConfig{
		Seed: 3, Runs: 1, ManageRoutes: true, Parallel: 8,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	}, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Goodput) != 2 || len(res.Goodput[0]) != len(rates) {
		t.Fatalf("result shape %dx%d, want 2x%d", len(res.Goodput), len(res.Goodput[0]), len(rates))
	}
	for si, name := range res.Schemes {
		for ri, rate := range rates {
			if res.Goodput[si][ri] <= 0 {
				t.Errorf("%s at %.1f flaps/min delivered nothing", name, rate)
			}
		}
	}
	// At every flap rate EMPoWER (multipath, CC) must beat the
	// single-path no-CC baseline on this scenario.
	for ri := range rates {
		if res.Goodput[0][ri] <= res.Goodput[1][ri] {
			t.Errorf("EMPoWER %.2f <= SP-w/o-CC %.2f at %.1f flaps/min",
				res.Goodput[0][ri], res.Goodput[1][ri], rates[ri])
		}
	}
}

// TestParseSchemes covers the CLI's scheme-list parsing.
func TestParseSchemes(t *testing.T) {
	all, err := ParseSchemes("all")
	if err != nil || len(all) != 8 {
		t.Fatalf("ParseSchemes(all) = %v, %v", all, err)
	}
	two, err := ParseSchemes("EMPoWER, SP-w/o-CC")
	if err != nil || len(two) != 2 || two[0] != core.SchemeEMPoWER || two[1] != core.SchemeSPWoCC {
		t.Fatalf("ParseSchemes = %v, %v", two, err)
	}
	if _, err := ParseSchemes("EMPoWER,NoSuch"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestFlapSweepCarriesViolations folds hand-built replication outputs,
// one of them violating: the sweep must hand the violation out beside
// the result — a flap sweep run with Invariants used to drop it — and
// keep it out of the result's JSON.
func TestFlapSweepCarriesViolations(t *testing.T) {
	cfg := ChurnConfig{Runs: 2, Invariants: true,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSP}}
	rates := []float64{1, 4}
	outs := make([]*ChurnRepOut, len(rates)*ChurnReps(cfg))
	for i := range outs {
		outs[i] = &ChurnRepOut{Goodput: float64(i), Drops: map[string]int{}}
	}
	// Rate-major, then run, then scheme: rate 4, run 1, SP.
	outs[1*4+1*2+1].Violations = 1
	outs[1*4+1*2+1].ViolationDetails = []string{"dead-link silence: l3 carried a frame"}

	res, violations := mergeFlapSweep("s", cfg, rates, outs)
	if want := [][]float64{{1, 5}, {2, 6}}; !reflect.DeepEqual(res.Goodput, want) {
		t.Errorf("goodput = %v, want %v (mean over runs per scheme and rate)", res.Goodput, want)
	}
	want := []Violation{{Scheme: "SP", Detail: "dead-link silence: l3 carried a frame"}}
	if !reflect.DeepEqual(violations, want) {
		t.Errorf("violations = %v, want %v", violations, want)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"scenario":"s","rates_per_min":[1,4],"schemes":["EMPoWER","SP"],"goodput":[[1,5],[2,6]]}`; got != want {
		t.Errorf("result JSON = %s, want %s", got, want)
	}
}

func TestCheckFlapRates(t *testing.T) {
	if err := CheckFlapRates([]float64{0.5, 4}); err != nil {
		t.Error(err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if CheckFlapRates([]float64{1, bad}) == nil {
			t.Errorf("flap rate %g accepted", bad)
		}
	}
}

// TestDeclaredDurationSizesNoMemory: nothing in a replication may be
// sized from the scenario's declared duration, which is outside input
// (rate logs presized for `duration: 1e12` would ask AddFlow for a ~2 TB
// chunk directory). Binding such a scenario through the churn sweep's
// path and emulating its first second must cost what any first second
// costs.
func TestDeclaredDurationSizesNoMemory(t *testing.T) {
	sc, err := scenario.Parse([]byte(`{
	  "name": "forever",
	  "duration": 1e12,
	  "topology": {
	    "kind": "custom",
	    "nodes": [
	      { "name": "s", "x": 0, "y": 0, "techs": ["PLC", "WiFi"] },
	      { "name": "d", "x": 10, "y": 0, "techs": ["PLC", "WiFi"] }
	    ],
	    "links": [
	      { "from": "s", "to": "d", "tech": "PLC", "capacity": 40 },
	      { "from": "s", "to": "d", "tech": "WiFi", "capacity": 60 }
	    ]
	  },
	  "flows": [ { "name": "f", "src": "s", "dst": "d", "start": 0 } ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := BindReplication(sc, core.SchemeEMPoWER, ChurnConfig{}, 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rt.Em.Run(1)
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("bind + first emulated second allocated %d KB", grew>>10)
	if grew > 4<<20 {
		t.Errorf("bind + first emulated second allocated %d KB, want under 4 MB", grew>>10)
	}
}
