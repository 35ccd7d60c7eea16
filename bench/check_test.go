package main

import (
	"runtime"
	"strings"
	"testing"
)

const churnDoc = `{"scenario":"s","runs":2,"rows":[` +
	`{"scheme":"EMPoWER","latencies":[1.2000000000000028,0.5],"censored":0,"median_latency":1.2},` +
	`{"scheme":"SP","latencies":null,"censored":3,"median_latency":-1}]}`

func TestCheckChurnOutputs(t *testing.T) {
	schemes := []string{"EMPoWER", "SP"}
	if err := checkFleetResult([]byte(churnDoc), "s", 2, schemes); err != nil {
		t.Errorf("well-formed result rejected: %v", err)
	}
	envelope := `{"experiment":"churn-failover","scenario":"s","seed":7,"result":` + churnDoc + `}` + "\n"
	if err := checkScenario([]byte(envelope), "s", 2, schemes, 7); err != nil {
		t.Errorf("well-formed envelope rejected: %v", err)
	}
	bad := map[string]string{
		"wrong seed":      strings.Replace(envelope, `"seed":7`, `"seed":8`, 1),
		"wrong runs":      strings.Replace(envelope, `"runs":2`, `"runs":3`, 1),
		"missing row":     strings.Replace(envelope, `,{"scheme":"SP","latencies":null,"censored":3,"median_latency":-1}`, ``, 1),
		"scheme order":    strings.Replace(strings.Replace(envelope, `"EMPoWER"`, `"X"`, 1), `"SP"`, `"EMPoWER"`, 1),
		"overflow number": strings.Replace(envelope, `0.5`, `1e999`, 1),
		"not JSON":        envelope[:len(envelope)/2],
		"two documents":   envelope + envelope,
	}
	for name, out := range bad {
		if err := checkScenario([]byte(out), "s", 2, schemes, 7); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSim(t *testing.T) {
	fig4 := func(topo, samples string) string {
		return `{"figure":"4","topo":"` + topo + `","seed":1,"result":{"Topo":"` + topo + `","Samples":{` +
			`"EMPoWER":` + samples + `,"SP":[1,2],"SP-WiFi":[1,2],"MP-WiFi":[1,2],"MP-mWiFi":[1,2]},"GainVsWiFi":0.5}}` + "\n"
	}
	topos := []string{"residential", "enterprise"}
	good := fig4("residential", "[1,2]") + fig4("enterprise", "[1,2]")
	if err := checkSim([]byte(good), "4", topos, 2, 1); err != nil {
		t.Errorf("well-formed figure 4 rejected: %v", err)
	}
	if err := checkSim([]byte(fig4("residential", "[1,2]")), "4", topos, 2, 1); err == nil {
		t.Errorf("a missing topology document was accepted")
	}
	if err := checkSim([]byte(fig4("residential", "[1]")+fig4("enterprise", "[1,2]")), "4", topos, 2, 1); err == nil {
		t.Errorf("a short sample set was accepted")
	}
	// Figure 6 skips disconnected pairs: fewer samples than runs is fine,
	// unequal series are not.
	fig6 := func(emp string) string {
		return `{"figure":"6","topo":"residential","seed":1,"result":{"Topo":"residential","Ratios":{` +
			`"conservative opt":[1,1],"EMPoWER":` + emp + `,"MP-2bp":[1,1],"MP-w/o-CC":[1,1],"SP":[1,1]}}}` + "\n"
	}
	if err := checkSim([]byte(fig6("[1,0.9]")), "6", topos[:1], 5, 1); err != nil {
		t.Errorf("figure 6 with 2 of 5 samples rejected: %v", err)
	}
	if err := checkSim([]byte(fig6("[1]")), "6", topos[:1], 5, 1); err == nil {
		t.Errorf("figure 6 with unequal series accepted")
	}
}

func TestSameChurnResult(t *testing.T) {
	reordered := `{ "runs": 2, "rows": [` +
		`{"latencies":[1.2000000000000028,0.5],"scheme":"EMPoWER","median_latency":1.2,"censored":0},` +
		`{"scheme":"SP","latencies":null,"censored":3,"median_latency":-1}], "scenario": "s" }`
	cli := `{"experiment":"churn-failover","seed":1,"result":` + reordered + `}`
	if err := sameChurnResult([]byte(churnDoc), []byte(cli)); err != nil {
		t.Errorf("key order and whitespace must not matter: %v", err)
	}
	differs := strings.Replace(cli, `1.2000000000000028`, `1.2000000000000027`, 1)
	if err := sameChurnResult([]byte(churnDoc), []byte(differs)); err == nil {
		t.Errorf("a last-digit difference must be caught: numbers compare as written")
	}
	withPhases := strings.Replace(cli, `{"experiment"`, `{"phases":{"run_seconds":1.5},"experiment"`, 1)
	if err := sameChurnResult([]byte(cli), []byte(withPhases)); err != nil {
		t.Errorf("two envelopes compare on their result only: %v", err)
	}
}

func TestGoldenPin(t *testing.T) {
	out := []byte("output\n")
	g := golden{GOARCH: runtime.GOARCH, SHA256: map[string]string{"w": sha256hex(out)}}
	if skipped, err := g.checkPin("w", out); err != nil || skipped != "" {
		t.Errorf("matching pin: skipped=%q err=%v", skipped, err)
	}
	if _, err := g.checkPin("w", []byte("other\n")); err == nil || !strings.Contains(err.Error(), sha256hex(out)) {
		t.Errorf("a mismatch must fail and print both hashes, got %v", err)
	}
	if _, err := g.checkPin("unpinned", out); err == nil {
		t.Errorf("a workload without a pin must fail")
	}
	g.GOARCH = "not-" + runtime.GOARCH
	if skipped, err := g.checkPin("w", []byte("other\n")); err != nil || skipped == "" {
		t.Errorf("another GOARCH skips the pin with a note: skipped=%q err=%v", skipped, err)
	}
	if err := checkIdentical(out, out); err != nil {
		t.Error(err)
	}
	if err := checkIdentical(out, []byte("other\n")); err == nil {
		t.Errorf("differing outputs must fail")
	}
}
