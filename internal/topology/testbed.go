package topology

import (
	"math/rand"
)

// testbedPositions approximates the 22-node office-floor layout of the
// paper's Figure 8 on a 65×40 m floor: nodes spread along two office rows
// and a central corridor. Coordinates are meters; node k of the paper is
// index k−1 here.
var testbedPositions = [22][2]float64{
	{4, 36},  // 1
	{10, 37}, // 2
	{4, 30},  // 3
	{9, 31},  // 4
	{15, 33}, // 5
	{21, 35}, // 6
	{14, 27}, // 7
	{20, 27}, // 8
	{27, 30}, // 9
	{26, 24}, // 10
	{8, 22},  // 11
	{33, 33}, // 12
	{3, 16},  // 13
	{40, 30}, // 14
	{39, 22}, // 15
	{47, 35}, // 16
	{33, 17}, // 17
	{46, 25}, // 18
	{52, 28}, // 19
	{45, 13}, // 20
	{55, 17}, // 21
	{61, 10}, // 22
}

// Testbed generates the 22-node instance of §6.1: every node has two WiFi
// interfaces and a HomePlug AV PLC interface on the building's electrical
// network (two panels splitting the floor). Capacities are drawn from the
// same distance-based distributions as the random topologies, using the
// supplied RNG so experiments can fix the channel realization by seed.
func Testbed(rng *rand.Rand, cfg Config) *Instance {
	inst := &Instance{Config: cfg}
	for i, p := range testbedPositions {
		panel := 0
		if p[0] >= 32.5 {
			panel = 1
		}
		inst.Nodes = append(inst.Nodes, NodeSpec{
			Name:   nodeName(i + 1),
			X:      p[0],
			Y:      p[1],
			Hybrid: true,
			Panel:  panel,
		})
	}
	inst.fillCaps(rng)
	return inst
}

func nodeName(k int) string {
	const digits = "0123456789"
	if k < 10 {
		return "node" + string(digits[k])
	}
	return "node" + string(digits[k/10]) + string(digits[k%10])
}
