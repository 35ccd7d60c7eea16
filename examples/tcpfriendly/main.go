// Tcpfriendly reproduces the §6.4 interaction at example scale: a
// Reno-style TCP flow runs first over a single path without congestion
// control, then over EMPoWER's two routes with the TCP constraint margin
// δ = 0.3 and destination-side delay equalization. EMPoWER's congestion
// controller drops packets above the allocation, TCP perceives them as
// congestion, and the received goodput follows the allocation.
package main

import (
	"flag"
	"fmt"
	"log"

	empower "repro"
	"repro/internal/node"
	"repro/internal/transport"
)

func main() {
	duration := flag.Float64("duration", 40, "seconds per phase")
	flag.Parse()

	// Figure 1-style scenario with enough WiFi capacity for TCP to bite.
	b := empower.NewNetworkBuilder(nil)
	a := b.AddNode("a", 0, 0, empower.TechPLC, empower.TechWiFi)
	mid := b.AddNode("b", 10, 0, empower.TechPLC, empower.TechWiFi)
	c := b.AddNode("c", 20, 0, empower.TechWiFi)
	b.AddDuplex(a, mid, empower.TechPLC, 20)
	b.AddDuplex(a, mid, empower.TechWiFi, 30)
	b.AddDuplex(mid, c, empower.TechWiFi, 60)
	net := b.Build()

	cfg := empower.DefaultRoutingConfig()
	single := empower.FindSinglePath(net, a, c, cfg)
	routes := empower.FindRoutes(net, a, c, cfg)

	run := func(name string, emCfg node.Config, paths []empower.Path) {
		em := empower.NewEmulation(net, emCfg, 99)
		conn, err := transport.Dial(em, a, c, paths, -1)
		if err != nil {
			log.Fatal(err)
		}
		em.Run(*duration)
		sink := em.Agent(c).SinkFor(a, conn.Forward.ID)
		fmt.Printf("%-22s goodput %6.2f Mbps  (retx %d, timeouts %d, 2.5-layer losses %d)\n",
			name, sink.MeanRate(*duration/2, *duration),
			conn.Sender.Retransmits, conn.Sender.Timeouts, sink.Lost)
	}

	fmt.Printf("TCP over EMPoWER (%g s per phase)\n\n", *duration)
	run("SP-w/o-CC (1 route)", node.Config{DisableCC: true, Estimation: true}, []empower.Path{single})
	run("EMPoWER δ=0.3 (multi)", node.Config{Delta: 0.3, DelayEqualize: true, Estimation: true}, routes)
}
