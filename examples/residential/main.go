// Residential generates a random home network as in the paper's §5.1
// evaluation (10 nodes on 50×30 m, half with PLC), then compares EMPoWER
// against the single-path and WiFi-only alternatives for a download flow
// from a hybrid gateway node — the workload the paper's introduction
// motivates (a laptop fetching a file through a PLC/WiFi extender).
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 4, "topology seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	inst := topology.Residential(rng, topology.Config{})
	src, dst := inst.RandomFlow(rng)
	fmt.Printf("residential instance (seed %d): flow n%d -> n%d\n\n", *seed, src+1, dst+1)

	net := inst.Build(topology.ViewHybrid)
	fmt.Println("EMPoWER routes:")
	for _, p := range routing.Multipath(net.Network, src, dst, routing.DefaultConfig()).Paths {
		fmt.Printf("  %s\n", net.PathString(p))
	}
	fmt.Println()

	for _, s := range []core.Scheme{
		core.SchemeEMPoWER, core.SchemeSP, core.SchemeMPWiFi,
		core.SchemeSPWiFi, core.SchemeMPmWiFi, core.SchemeMPWoCC,
	} {
		tx := core.Throughput(inst, s, src, dst, core.Options{})
		fmt.Printf("%-10s %7.2f Mbps\n", s, tx)
	}
}
