// Enterprise generates the §5.1 enterprise topology (20 nodes on
// 100×60 m, 10 grid-placed PLC/WiFi APs, two electrical panels) and runs
// three contending flows, reporting the per-flow allocation and the
// aggregate proportional-fairness utility against the centralized optimum
// — the Figure 7 workload at single-instance scale.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/optimal"
	"repro/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 11, "topology seed")
	flows := flag.Int("flows", 3, "number of contending flows")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	inst := topology.Enterprise(rng, topology.Config{})
	pairs := make([][2]graph.NodeID, *flows)
	specs := make([]optimal.FlowSpec, *flows)
	for i := range pairs {
		s, d := inst.RandomFlow(rng)
		pairs[i] = [2]graph.NodeID{s, d}
		specs[i] = optimal.FlowSpec{Src: s, Dst: d}
	}
	fmt.Printf("enterprise instance (seed %d), %d contending flows\n\n", *seed, *flows)

	net := inst.Build(topology.ViewHybrid)
	opt, err := optimal.Optimal(net.Network, specs, optimal.Config{})
	if err != nil {
		fmt.Println("optimal baseline failed:", err)
		return
	}
	var optUtil float64
	for _, x := range opt.FlowRates {
		optUtil += math.Log1p(x)
	}

	for _, s := range []core.Scheme{core.SchemeEMPoWER, core.SchemeMP2bp, core.SchemeSP, core.SchemeMPWoCC} {
		res := core.Evaluate(inst, s, pairs, core.Options{})
		fmt.Printf("%-10s utility %6.3f (%.0f%% of optimal)  rates:", s, res.Utility, 100*res.Utility/optUtil)
		for _, f := range res.Flows {
			fmt.Printf(" %6.2f", f.Throughput)
		}
		fmt.Println(" Mbps")
	}
	fmt.Printf("%-10s utility %6.3f              rates:", "optimal", optUtil)
	for _, x := range opt.FlowRates {
		fmt.Printf(" %6.2f", x)
	}
	fmt.Println(" Mbps")
}
