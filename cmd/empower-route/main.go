// Command empower-route computes EMPoWER routes for a topology described
// in a JSON file — the "topology" object of the scenario schema (see
// DESIGN.md), kind "custom": the single-path procedure, the n shortest
// paths, and the multipath combination with its total achievable rate.
//
// Flags:
//
//	-topo file   topology JSON file (the scenario schema's "topology"
//	             object); without it, the built-in Figure 1 example
//	-src name    source node name (default "a")
//	-dst name    destination node name (default "c")
//	-n N         n for the n-shortest paths (default 5)
//	-dump        print the topology as JSON and exit
//
// Usage:
//
//	empower-route -topo net.json -src a -dst c
//	empower-route           # the paper's Figure 1 scenario
//	empower-route -dump     # print the example topology as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// example is the paper's Figure 1 scenario.
var example = scenario.TopologySpec{
	Kind: "custom",
	Nodes: []scenario.NodeSpec{
		{Name: "a", X: 0, Techs: []string{"plc", "wifi"}},
		{Name: "b", X: 10, Techs: []string{"plc", "wifi"}},
		{Name: "c", X: 20, Techs: []string{"wifi"}},
	},
	Links: []scenario.LinkSpec{
		{From: "a", To: "b", Tech: "plc", Capacity: 10},
		{From: "a", To: "b", Tech: "wifi", Capacity: 15},
		{From: "b", To: "c", Tech: "wifi", Capacity: 30},
	},
}

func main() {
	topoPath := flag.String("topo", "", "topology JSON file")
	src := flag.String("src", "a", "source node name")
	dst := flag.String("dst", "c", "destination node name")
	n := flag.Int("n", 5, "n for n-shortest")
	dump := flag.Bool("dump", false, "print the topology as JSON and exit")

	cli.Main("empower-route", func(context.Context) error {
		spec := &example
		if *topoPath != "" {
			var err error
			if spec, err = scenario.LoadTopology(*topoPath); err != nil {
				return err
			}
		}
		if *dump {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(spec)
		}
		view, err := scenario.ParseView(spec.View)
		if err != nil {
			return err
		}
		net, err := spec.BuildView(0, view)
		if err != nil {
			return err
		}
		ids := map[string]graph.NodeID{}
		for i := range net.Nodes {
			ids[net.Nodes[i].Name] = graph.NodeID(i)
		}
		s, ok := ids[*src]
		if !ok {
			return fmt.Errorf("unknown source %q", *src)
		}
		d, ok := ids[*dst]
		if !ok {
			return fmt.Errorf("unknown destination %q", *dst)
		}

		cfg := routing.DefaultConfig()
		cfg.N = *n

		if p := routing.SinglePath(net, s, d, cfg); p != nil {
			fmt.Printf("single-path:   %s  (R = %.2f Mbps, weight %.4f)\n",
				net.PathString(p), routing.RatePath(net, p), routing.PathWeight(net, p, cfg))
		} else {
			fmt.Println("single-path:   unreachable")
		}

		fmt.Printf("%d-shortest:\n", cfg.N)
		for i, p := range routing.NShortest(net, s, d, cfg) {
			fmt.Printf("  %d. %s  (R = %.2f Mbps)\n", i+1, net.PathString(p), routing.RatePath(net, p))
		}

		comb := routing.Multipath(net, s, d, cfg)
		fmt.Printf("multipath combination (total %.2f Mbps):\n", comb.Total)
		for i, p := range comb.Paths {
			fmt.Printf("  route %d @ %.2f Mbps: %s\n", i+1, comb.Rates[i], net.PathString(p))
		}
		return nil
	})
}
