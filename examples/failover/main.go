// Failover demonstrates EMPoWER's reaction to a link failure (§6.1: link
// failures are detected "to the order of hundred of milliseconds" via
// traffic-driven capacity estimation; §3.2: routes are recomputed on
// failure or large capacity variation). A flow runs over a PLC route and
// a WiFi route; mid-run the PLC medium dies (a noisy appliance, say), the
// capacity estimator flags it, the congestion controller drains the dead
// route, and the route manager recomputes the route set.
package main

import (
	"flag"
	"fmt"
	"log"

	empower "repro"
	"repro/internal/node"
)

func main() {
	failAt := flag.Float64("fail", 20, "seconds until the PLC link dies")
	duration := flag.Float64("duration", 60, "total emulated seconds")
	flag.Parse()

	b := empower.NewNetworkBuilder(nil)
	s := b.AddNode("src", 0, 0, empower.TechPLC, empower.TechWiFi)
	r := b.AddNode("relay", 10, 0, empower.TechPLC, empower.TechWiFi)
	d := b.AddNode("dst", 20, 0, empower.TechPLC, empower.TechWiFi)
	plcSD, _ := b.AddDuplex(s, d, empower.TechPLC, 40)
	b.AddDuplex(s, r, empower.TechWiFi, 60)
	b.AddDuplex(r, d, empower.TechWiFi, 60)
	net := b.Build()

	em := empower.NewEmulation(net, node.Config{Estimation: true}, 7)
	routes := empower.FindRoutes(net, s, d, empower.DefaultRoutingConfig())
	fmt.Println("initial routes:")
	for _, p := range routes {
		fmt.Printf("  %s\n", net.PathString(p))
	}
	flow, err := em.AddFlow(node.FlowSpec{
		Src: s, Dst: d, Routes: routes, Kind: node.TrafficSaturated,
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	mgr := em.ManageRoutes(flow)

	em.Domain(em.LinkDomain(plcSD)).Engine.At(*failAt, func() {
		fmt.Printf("t=%.0fs: PLC medium dies\n", *failAt)
		em.SetLinkCapacity(plcSD, 0)
	})

	// Report once per 5 emulated seconds. The per-slot rate readout uses
	// the caller-buffer form (AppendRates) so the loop reuses one slice.
	var rates []float64
	for t := 5.0; t <= *duration; t += 5 {
		em.Run(t)
		sink := em.Agent(d).Sinks()[0]
		rates = flow.AppendRates(rates[:0])
		fmt.Printf("t=%4.0fs  goodput %6.2f Mbps  routes=%d  reroutes=%d  rates=%v\n",
			t, sink.MeanRate(t-5, t), len(flow.Routes()), mgr.Reroutes, compact(rates))
	}
	fmt.Println("\nfinal routes:")
	for _, p := range flow.Routes() {
		fmt.Printf("  %s\n", net.PathString(p))
	}
}

func compact(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*10)) / 10
	}
	return out
}
