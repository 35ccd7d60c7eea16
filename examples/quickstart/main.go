// Quickstart walks the internal packages through the paper's Figure 1
// scenario: a PLC/WiFi gateway (a), a PLC/WiFi range extender (b) and a
// WiFi laptop (c). It finds the multipath combination, converges the
// congestion controller on it, and cross-checks against the centralized
// optimum — reproducing the 10 + 6.67 Mbps split of the paper's
// introduction.
package main

import (
	"fmt"
	"log"

	"repro/internal/congestion"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/optimal"
	"repro/internal/routing"
)

func main() {
	// 1. Model the network (graph, §2): capacities in Mbps; PLC and WiFi
	//    do not interfere with each other, same-technology links share
	//    airtime.
	b := graph.NewBuilder(nil)
	gateway := b.AddNode("gateway", 0, 0, graph.TechPLC, graph.TechWiFi)
	extender := b.AddNode("extender", 12, 0, graph.TechPLC, graph.TechWiFi)
	laptop := b.AddNode("laptop", 24, 0, graph.TechWiFi)
	b.AddDuplex(gateway, extender, graph.TechPLC, 10)
	b.AddDuplex(gateway, extender, graph.TechWiFi, 15)
	b.AddDuplex(extender, laptop, graph.TechWiFi, 30)
	net := b.Build()

	// 2. Multipath routing (routing, §3): the best combination of
	//    simultaneously usable routes.
	comb := routing.Multipath(net, gateway, laptop, routing.DefaultConfig())
	fmt.Printf("multipath combination: total %.2f Mbps\n", comb.Total)
	for i, p := range comb.Paths {
		fmt.Printf("  route %d @ %5.2f Mbps: %s\n", i+1, comb.Rates[i], net.PathString(p))
	}

	// 3. Congestion control (congestion, §4): the distributed controller
	//    converges to the same allocation.
	var routes []congestion.Route
	for _, p := range comb.Paths {
		routes = append(routes, congestion.Route{Links: p, Flow: 0})
	}
	ctrl, err := congestion.New(net, routes, congestion.Options{Alpha: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	ctrl.Run(5000)
	fmt.Printf("controller steady state: %.2f Mbps (per route: ", ctrl.FlowRate(0))
	for i, x := range ctrl.Rates() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%.2f", x)
	}
	fmt.Println(")")

	// 4. Sanity (optimal, §5): the centralized optimum over all simple
	//    paths, under proportional fairness.
	opt, err := optimal.Optimal(net, []optimal.FlowSpec{{Src: gateway, Dst: laptop}}, optimal.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized optimum:     %.2f Mbps\n", opt.FlowRates[0])

	// 5. Full packet-level emulation of the EMPoWER node stack (node, §6).
	em := node.NewEmulation(net, node.Config{}, 42)
	if _, err := em.AddFlow(node.FlowSpec{
		Src: gateway, Dst: laptop, Routes: comb.Paths, Kind: node.TrafficSaturated,
	}, 0); err != nil {
		log.Fatal(err)
	}
	em.Run(30)
	sink := em.Agent(laptop).Sinks()[0]
	fmt.Printf("emulated goodput (packet level, 30 s): %.2f Mbps (loss: %d pkts)\n",
		sink.MeanRate(20, 30), sink.Lost)
}
