// Package fuzz generates randomized adversarial scenarios — correlated
// failures, gray failures, flash crowds, churn, capacity drift on random
// clustered topologies — and checks every run against the reproduction's
// free oracles:
//
//   - the runtime invariant checker (internal/invariant) rides the run:
//     flow conservation, dead-link silence, rate-vs-capacity bounds,
//     drop accounting;
//   - the determinism contract, differentially: a second run of the
//     same (scenario, seed) pair, with the invariant checker off and a
//     flight recorder on, must yield the same full observable signature
//     (transitions, failures, per-flow delivery, drops) — two runs
//     agree, and neither checking nor recording ever changes the
//     trajectory;
//   - cross-scheme sanity: a second scheme runs the same scenario and
//     its aggregates must stay finite, non-negative and physical.
//
// On failure the scenario is greedily minimized (drop events,
// processes, flows one at a time while the same check keeps failing)
// and written as a reproducer JSON through the strict scenario schema,
// so `empower-scenario` and the tests can replay it.
package fuzz

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// traceRing sizes the per-domain flight-recorder ring used when a
// reproducer is re-run for the trace dump. Fuzz scenarios are short
// (≤ ~20 emulated seconds), so 4096 records per domain keeps the whole
// failing trajectory, not just its tail.
const traceRing = 4096

// Seed domains, offset away from every stream the runners use (runner
// replications use the plain index, scenario timelines 1_000_000+run,
// topology realizations 2_000_000+run, emulation domains 3_000_000+d).
const (
	seedGenerate = 500_000 // scenario generation, per fuzz run
	seedTimeline = 550_000 // process expansion, per fuzz run
	seedEmu      = 600_000 // emulation RNG, per fuzz run
)

// Inject selects a deliberate defect, used to prove the oracles catch
// real violations (the checker self-test and the -inject CLI flag).
type Inject string

const (
	// InjectNone runs clean.
	InjectNone Inject = ""
	// InjectCounter corrupts a relay conservation counter mid-run on
	// the invariant arm — the checker must flag flow-conservation.
	InjectCounter Inject = "counter"
	// InjectSeed perturbs the differential arm's seeds — the
	// differential oracle must flag the trajectory divergence.
	InjectSeed Inject = "seed"
)

// Config tunes a fuzzing session.
type Config struct {
	// Runs is the number of randomized scenarios (default 25).
	Runs int
	// Seed is the base seed; every run derives its streams from it.
	Seed int64
	// OutDir receives reproducer JSONs (default "fuzz-failures").
	OutDir string
	// MaxDuration caps the generated scenario length in emulated
	// seconds (default 12; the floor is 6).
	MaxDuration float64
	// Inject seeds a deliberate defect (see Inject).
	Inject Inject
	// Log, when set, receives progress lines.
	Log func(format string, args ...interface{})
}

func (c Config) runs() int {
	if c.Runs <= 0 {
		return 25
	}
	return c.Runs
}

func (c Config) outDir() string {
	if c.OutDir == "" {
		return "fuzz-failures"
	}
	return c.OutDir
}

func (c Config) maxDuration() float64 {
	if c.MaxDuration < 6 {
		return 12
	}
	return c.MaxDuration
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Failure describes the first failing run of a session.
type Failure struct {
	Run    int    `json:"run"`
	Check  string `json:"check"`
	Detail string `json:"detail"`
	// Repro is the minimized reproducer path ("" if writing failed —
	// Detail then explains).
	Repro string `json:"repro,omitempty"`
	// Trace is the Chrome trace-event JSON dumped from the flight
	// recorder while replaying the minimized reproducer ("" if the
	// replay or the write failed).
	Trace string `json:"trace,omitempty"`
	// TimelineSeed and EmuSeed replay the failing run against Repro.
	TimelineSeed int64 `json:"timeline_seed"`
	EmuSeed      int64 `json:"emu_seed"`
}

// Result summarizes a session: how many scenarios ran clean, and the
// first failure (nil for an entirely clean session — the session stops
// at the first failure, like go test -run fuzzing).
type Result struct {
	Clean   int      `json:"clean"`
	Failure *Failure `json:"failure,omitempty"`
}

// RunCtx executes the session. It checks ctx between scenarios (one
// scenario's checks are not preempted mid-run) and returns ctx.Err() with
// the partial result when interrupted.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	var res Result
	for i := 0; i < cfg.runs(); i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rng := stats.NewRand(stats.SplitSeed(cfg.Seed, seedGenerate+i))
		sc := Generate(rng, cfg.maxDuration())
		sc.Name = fmt.Sprintf("fuzz-%d", i)
		scSeed := stats.SplitSeed(cfg.Seed, seedTimeline+i)
		emSeed := stats.SplitSeed(cfg.Seed, seedEmu+i)
		fail, err := check(sc, scSeed, emSeed, cfg.Inject)
		if err != nil {
			return res, fmt.Errorf("fuzz: run %d: %w", i, err)
		}
		if fail == nil {
			res.Clean++
			cfg.logf("run %d ok (%s, %d nodes, %d events, %d processes)",
				i, sc.Name, len(sc.Topology.Nodes), len(sc.Events), len(sc.Processes))
			continue
		}
		fail.Run = i
		fail.TimelineSeed = scSeed
		fail.EmuSeed = emSeed
		cfg.logf("run %d FAILED %s: %s", i, fail.Check, fail.Detail)
		sc = minimize(sc, scSeed, emSeed, cfg, fail.Check)
		if path, err := writeRepro(sc, cfg.outDir(), i); err != nil {
			fail.Detail += fmt.Sprintf(" (reproducer not written: %v)", err)
		} else {
			fail.Repro = path
			cfg.logf("reproducer: %s", path)
			if trace, err := dumpTrace(sc, scSeed, emSeed, path+".trace.json"); err != nil {
				cfg.logf("flight-recorder trace not written: %v", err)
			} else {
				fail.Trace = trace
				cfg.logf("flight-recorder trace: %s", trace)
			}
		}
		res.Failure = fail
		return res, nil
	}
	return res, nil
}

// check runs one scenario through all oracles. A nil Failure means the
// scenario passed; a non-nil error means the harness itself broke (a
// generated scenario that cannot bind is a generator bug, not a finding).
func check(sc *scenario.Scenario, scSeed, emSeed int64, inject Inject) (*Failure, error) {
	// Oracle 1+2: the invariant arm (checker attached).
	a, err := runArm(sc, core.SchemeEMPoWER, scSeed, emSeed, true, 0, inject == InjectCounter)
	if err != nil {
		return nil, err
	}
	if len(a.violations) > 0 {
		v := a.violations[0]
		return &Failure{Check: "invariant:" + v.Check, Detail: v.Detail}, nil
	}
	if f := sanity(sc, "EMPoWER", a); f != nil {
		return f, nil
	}
	// Oracle 3: the differential arm (same seeds, checker off, flight
	// recorder on) must reproduce the exact trajectory signature.
	bScSeed, bEmSeed := scSeed, emSeed
	if inject == InjectSeed {
		bScSeed, bEmSeed = scSeed+1, emSeed+1
	}
	b, err := runArm(sc, core.SchemeEMPoWER, bScSeed, bEmSeed, false, traceRing, false)
	if err != nil {
		return nil, err
	}
	if a.sig != b.sig {
		return &Failure{Check: "differential", Detail: sigDiff(a.sig, b.sig)}, nil
	}
	// Oracle 4: a contrast scheme on the same scenario stays physical.
	c, err := runArm(sc, core.SchemeSP, scSeed, emSeed, true, 0, false)
	if err != nil {
		return nil, err
	}
	if len(c.violations) > 0 {
		v := c.violations[0]
		return &Failure{Check: "invariant:" + v.Check, Detail: "scheme SP: " + v.Detail}, nil
	}
	if f := sanity(sc, "SP", c); f != nil {
		return f, nil
	}
	return nil, nil
}

// armResult is one run's observable outcome.
type armResult struct {
	sig        string
	violations []violation
	goodput    float64
	capSum     float64
}

// violation narrows invariant.Violation to what the fuzzer reports
// (keeping the fuzz package decoupled from the checker's type).
type violation struct {
	Check  string
	Detail string
}

func (v violation) String() string { return v.Check + ": " + v.Detail }

// bindArm binds the scenario under one arm's (scheme, checker, flight
// recorder) configuration at δ = 0.05 with the route manager on CC
// schemes. The timeline seed doubles as the topology seed.
func bindArm(sc *scenario.Scenario, scheme core.Scheme, scSeed, emSeed int64, invariants bool, recorder int) (*scenario.Runtime, error) {
	cfg := experiments.ChurnConfig{Delta: 0.05, ManageRoutes: true, Invariants: invariants}
	return experiments.BindReplication(sc, scheme, cfg, recorder, scSeed, scSeed, emSeed)
}

// runArm binds and runs the scenario under one arm's configuration and
// extracts the full observable signature.
func runArm(sc *scenario.Scenario, scheme core.Scheme, scSeed, emSeed int64, invariants bool, recorder int, injectCounter bool) (*armResult, error) {
	rt, err := bindArm(sc, scheme, scSeed, emSeed, invariants, recorder)
	if err != nil {
		return nil, err
	}
	em, net := rt.Em, rt.Em.Net
	if injectCounter {
		// Corrupt a relay counter mid-run, on the owning domain's
		// engine. Nothing but the invariant checker reads the counter,
		// so the trajectory is untouched — exactly the class of silent
		// corruption the checker exists to catch.
		n := graph.NodeID(0)
		d := em.Domain(em.NodeDomain(n))
		d.Engine.At(sc.Duration/2, func() { d.Agents[n].Forwarded++ })
	}
	rt.Run()

	res := &armResult{goodput: rt.AggregateGoodput()}
	for _, v := range rt.Violations() {
		res.violations = append(res.violations, violation{
			Check:  v.Check,
			Detail: fmt.Sprintf("t=%.3f dom=%d %s", v.At, v.Domain, v.Detail),
		})
	}
	for l := 0; l < net.NumLinks(); l++ {
		res.capSum += net.Link(graph.LinkID(l)).Capacity
	}
	var b strings.Builder
	for _, tr := range rt.Transitions {
		fmt.Fprintf(&b, "T %.9f %s %d %.9f %.9f\n", tr.At, tr.Kind, tr.Link, tr.Capacity, tr.Loss)
	}
	for _, f := range rt.Failures {
		fmt.Fprintf(&b, "F %s %v %.9f %.9f\n", f.Flow, f.Links, f.At, f.RecoveredAt)
	}
	for _, name := range rt.FlowNames() {
		rec := rt.Flow(name)
		sink := em.Agent(rec.Dst).PeekSink(rec.Src, rec.Flow.ID)
		if sink == nil {
			fmt.Fprintf(&b, "f %s -\n", name)
			continue
		}
		fmt.Fprintf(&b, "f %s %d %d %d\n", name, sink.TotalPackets, sink.TotalBytes, sink.Lost)
	}
	drops := rt.Em.DropsByReason()
	for _, reason := range []string{"dead-link", "queue-overflow", "link-down", "channel-loss"} {
		fmt.Fprintf(&b, "d %s %d\n", reason, drops[reason])
	}
	fmt.Fprintf(&b, "r %d s %d u %d g %.9f\n",
		rt.Em.Reroutes(), len(rt.SkippedFlows), len(rt.Unresolved), res.goodput)
	res.sig = b.String()
	return res, nil
}

// sanity checks that an arm's aggregates are physical: finite,
// non-negative, and below the network's gross delivery ceiling (the
// summed link capacities, doubled for slack — goodput is averaged over
// the duration, so nothing real gets near it).
func sanity(sc *scenario.Scenario, scheme string, a *armResult) *Failure {
	if math.IsNaN(a.goodput) || math.IsInf(a.goodput, 0) || a.goodput < 0 {
		return &Failure{Check: "sanity", Detail: fmt.Sprintf("scheme %s: aggregate goodput %v", scheme, a.goodput)}
	}
	if a.goodput > 2*a.capSum {
		return &Failure{Check: "sanity", Detail: fmt.Sprintf(
			"scheme %s: aggregate goodput %.2f Mbps exceeds 2x total capacity %.2f", scheme, a.goodput, a.capSum)}
	}
	return nil
}

// sigDiff reports the first line where two trajectory signatures
// diverge.
func sigDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: invariant arm %q vs recorded arm %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("signature lengths differ: %d vs %d lines", len(al), len(bl))
}

// minimize greedily shrinks the failing scenario: drop one event,
// process, flow or group at a time, keep the removal whenever the same
// check still fails, stop when a full pass removes nothing or the budget
// of 48 re-runs is spent.
func minimize(sc *scenario.Scenario, scSeed, emSeed int64, cfg Config, check0 string) *scenario.Scenario {
	budget := 48
	stillFails := func(cand *scenario.Scenario) bool {
		if budget <= 0 || cand.Validate() != nil {
			return false
		}
		budget--
		fail, err := check(cand, scSeed, emSeed, cfg.Inject)
		return err == nil && fail != nil && fail.Check == check0
	}
	cur := sc
	for improved := true; improved && budget > 0; {
		improved = false
		for i := 0; i < len(cur.Events); i++ {
			cand := clone(cur)
			cand.Events = append(cand.Events[:i:i], cand.Events[i+1:]...)
			if stillFails(cand) {
				cur, improved = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Processes); i++ {
			cand := clone(cur)
			cand.Processes = append(cand.Processes[:i:i], cand.Processes[i+1:]...)
			if stillFails(cand) {
				cur, improved = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Flows); i++ {
			cand := clone(cur)
			cand.Flows = append(cand.Flows[:i:i], cand.Flows[i+1:]...)
			if stillFails(cand) {
				cur, improved = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Groups); i++ {
			// Validate rejects dangling group references, so a still-used
			// group simply fails the candidate and stays.
			cand := clone(cur)
			cand.Groups = append(cand.Groups[:i:i], cand.Groups[i+1:]...)
			if stillFails(cand) {
				cur, improved = cand, true
				i--
			}
		}
	}
	return cur
}

// clone copies the scenario one level deep — exactly the slices
// minimize edits.
func clone(sc *scenario.Scenario) *scenario.Scenario {
	out := *sc
	out.Flows = append([]scenario.FlowSpec(nil), sc.Flows...)
	out.Events = append([]scenario.Event(nil), sc.Events...)
	out.Processes = append([]scenario.Process(nil), sc.Processes...)
	out.Groups = append([]scenario.GroupSpec(nil), sc.Groups...)
	return &out
}

// writeRepro saves the scenario and round-trips it through the strict
// loader, so the reproducer is guaranteed replayable.
func writeRepro(sc *scenario.Scenario, dir string, run int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-run%d.json", run))
	if err := sc.Save(path); err != nil {
		return "", err
	}
	if _, err := scenario.Load(path); err != nil {
		return "", fmt.Errorf("reproducer does not reload: %w", err)
	}
	return path, nil
}

// dumpTrace replays the minimized reproducer on the invariant arm's
// configuration with the flight recorder attached and writes the
// per-domain records as Chrome trace-event JSON next to the reproducer,
// so the failing trajectory opens directly in Perfetto. The recorder is
// purely observational, so the replay follows the exact trajectory the
// oracles flagged.
func dumpTrace(sc *scenario.Scenario, scSeed, emSeed int64, path string) (string, error) {
	rt, err := bindArm(sc, core.SchemeEMPoWER, scSeed, emSeed, true, traceRing)
	if err != nil {
		return "", err
	}
	rt.Run()
	if err := obs.WriteChromeTraceFile(path, rt.Em.RecorderTails(traceRing)); err != nil {
		return "", err
	}
	return path, nil
}

// Generate draws one randomized adversarial scenario: a clustered
// custom topology (spatially separated clusters fall into independent
// interference domains, so the multi-domain engine has real work),
// scripted flows, correlated failure groups, an adversarial event
// timeline, and stochastic processes covering every kind the engine
// knows.
func Generate(rng *rand.Rand, maxDuration float64) *scenario.Scenario {
	duration := 6 + rng.Float64()*(maxDuration-6)
	sc := scenario.New("fuzz", duration)

	clusters := 1 + rng.Intn(3)
	topo := &scenario.TopologySpec{
		Kind:        "custom",
		SenseRadius: map[string]float64{"plc": 100, "wifi": 100},
	}
	type link struct {
		spec scenario.LinkSpec
		ref  scenario.LinkRef
	}
	var (
		nodes [][]string // per cluster
		links [][]link   // per cluster
	)
	addLink := func(c int, from, to, tech string, capacity float64) {
		spec := scenario.LinkSpec{From: from, To: to, Tech: tech, Capacity: capacity}
		topo.Links = append(topo.Links, spec)
		links[c] = append(links[c], link{
			spec: spec,
			ref:  scenario.LinkRef{From: from, To: to, Tech: tech},
		})
	}
	for c := 0; c < clusters; c++ {
		n := 2 + rng.Intn(3)
		var names []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("n%d_%d", c, i)
			names = append(names, name)
			topo.Nodes = append(topo.Nodes, scenario.NodeSpec{
				Name:  name,
				X:     float64(c)*1000 + rng.Float64()*30,
				Y:     rng.Float64()*30 - 15,
				Techs: []string{"plc", "wifi"},
			})
		}
		nodes = append(nodes, names)
		links = append(links, nil)
		// A ring of PLC links, most pairs doubled with a WiFi link —
		// the hybrid-multipath structure the paper's schemes differ on.
		pairs := n - 1
		if n > 2 {
			pairs = n
		}
		for i := 0; i < pairs; i++ {
			from, to := names[i], names[(i+1)%n]
			addLink(c, from, to, "plc", 20+rng.Float64()*40)
			if rng.Float64() < 0.7 {
				addLink(c, from, to, "wifi", 20+rng.Float64()*40)
			}
		}
	}
	sc.Topology = topo

	randomLink := func(c int) scenario.LinkRef { return links[c][rng.Intn(len(links[c]))].ref }
	clamp := func(t float64) float64 {
		if t >= duration {
			return duration - 0.5
		}
		return t
	}
	for c := 0; c < clusters; c++ {
		// A long-lived flow per cluster keeps traffic on the links the
		// events attack.
		if rng.Float64() < 0.85 && len(nodes[c]) >= 2 {
			i := rng.Intn(len(nodes[c]))
			j := rng.Intn(len(nodes[c]) - 1)
			if j >= i {
				j++
			}
			sc.AddFlow(scenario.FlowSpec{
				Name:  fmt.Sprintf("f%d", c),
				Src:   nodes[c][i],
				Dst:   nodes[c][j],
				Start: rng.Float64() * 2,
			})
		}
		// Correlated failure group: a subset of the cluster's links
		// dying atomically (the shared PLC phase of §6.1's appliance).
		if rng.Float64() < 0.6 {
			name := fmt.Sprintf("g%d", c)
			count := 1 + rng.Intn(2)
			var refs []scenario.LinkRef
			for k := 0; k < count; k++ {
				refs = append(refs, randomLink(c))
			}
			sc.Group(name, refs...)
			at := 2 + rng.Float64()*(duration-4)
			sc.FailGroup(at, name)
			if rng.Float64() < 0.8 {
				sc.RecoverGroup(clamp(at+0.5+rng.Float64()*2.5), name)
			}
		}
		// Clean failures, gray failures, capacity downgrades, churn.
		if rng.Float64() < 0.5 {
			ref := randomLink(c)
			at := 2 + rng.Float64()*(duration-4)
			sc.FailLink(at, ref)
			sc.RecoverLink(clamp(at+0.5+rng.Float64()*2), ref)
		}
		if rng.Float64() < 0.5 {
			ref := randomLink(c)
			at := 1 + rng.Float64()*(duration-3)
			sc.SetLinkLoss(at, ref, 0.05+rng.Float64()*0.35)
			if rng.Float64() < 0.7 {
				sc.SetLinkLoss(clamp(at+1+rng.Float64()*2), ref, 0)
			}
		}
		if rng.Float64() < 0.3 {
			l := links[c][rng.Intn(len(links[c]))]
			sc.SetLinkCapacity(1+rng.Float64()*(duration-2), l.ref, l.spec.Capacity*(0.3+rng.Float64()*0.6))
		}
		if rng.Float64() < 0.25 && len(nodes[c]) > 2 {
			n := nodes[c][rng.Intn(len(nodes[c]))]
			at := 2 + rng.Float64()*(duration-4)
			sc.NodeLeave(at, n)
			sc.NodeJoin(clamp(at+1+rng.Float64()*2), n)
		}
		// Stochastic processes, one of each kind at most per cluster.
		if rng.Float64() < 0.4 {
			sc.Flap(randomLink(c), 2+rng.Float64()*2, 0.5+rng.Float64()*2, 2+rng.Float64()*3)
		}
		if rng.Float64() < 0.4 {
			sc.GrayLoss(randomLink(c), 0.1+rng.Float64()*0.4, 2+rng.Float64()*2, 0.5+rng.Float64()*2, 2+rng.Float64()*3)
		}
		if rng.Float64() < 0.3 {
			sc.Drift(randomLink(c), 0.5+rng.Float64(), 0.1+rng.Float64()*0.2, 0.3, 1.3)
		}
	}
	// Network-wide load processes draw random pairs (cross-cluster
	// draws resolve to routeless flows and count as skipped arrivals —
	// itself a determinism-sensitive code path worth fuzzing).
	if rng.Float64() < 0.5 {
		burstRate := 0.0
		if rng.Float64() < 0.5 {
			burstRate = 0.1 + rng.Float64()*0.2
		}
		sc.FlashCrowd(1+rng.Float64()*2, burstRate, 2+rng.Intn(3), 0.5+rng.Float64()*1.5, 2+rng.Float64()*2, "", "")
	}
	if rng.Float64() < 0.3 {
		sc.PoissonFlows(0.2+rng.Float64()*0.3, 2+rng.Float64()*2, "", "")
	}
	// The differential oracle leans on the timeline expansion streams;
	// guarantee at least one stochastic process and one flow exist.
	if len(sc.Processes) == 0 {
		sc.Flap(randomLink(0), 2, 1, 3)
	}
	if len(sc.Flows) == 0 {
		sc.AddFlow(scenario.FlowSpec{Name: "f0", Src: nodes[0][0], Dst: nodes[0][1], Start: 0.5})
	}
	return sc
}
