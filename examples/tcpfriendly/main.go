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

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/routing"
	"repro/internal/transport"
)

func main() {
	duration := flag.Float64("duration", 40, "seconds per phase")
	flag.Parse()

	// Figure 1-style scenario with enough WiFi capacity for TCP to bite.
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	mid := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("c", 20, 0, graph.TechWiFi)
	b.AddDuplex(a, mid, graph.TechPLC, 20)
	b.AddDuplex(a, mid, graph.TechWiFi, 30)
	b.AddDuplex(mid, c, graph.TechWiFi, 60)
	net := b.Build()

	cfg := routing.DefaultConfig()
	single := routing.SinglePath(net, a, c, cfg)
	routes := routing.Multipath(net, a, c, cfg).Paths

	run := func(name string, emCfg node.Config, paths []graph.Path) {
		em := node.NewEmulation(net, emCfg, 99)
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
	run("SP-w/o-CC (1 route)", node.Config{DisableCC: true, Estimation: true}, []graph.Path{single})
	run("EMPoWER δ=0.3 (multi)", node.Config{Delta: 0.3, DelayEqualize: true, Estimation: true}, routes)
}
