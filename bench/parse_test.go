package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProm(t *testing.T) {
	text := `# HELP empower_events_fired_total events
# TYPE empower_events_fired_total counter
empower_events_fired_total 830902
empower_mac_dropped_packets_total{reason="dead-link"} 6514
empower_mac_dropped_packets_total{reason="queue-overflow"} 3
empower_mac_airtime_seconds_total 220.6045072825284
empower_mac_delivered_bits_total 6.35548288e+09
fleet_sweeps{state="done"} 12

empower_mac_dropped_packets 99
`
	snap, err := parseProm([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap["empower_events_fired_total"]; got != 830902 {
		t.Errorf("events = %v", got)
	}
	if got := snap[`empower_mac_dropped_packets_total{reason="dead-link"}`]; got != 6514 {
		t.Errorf("labelled series = %v", got)
	}
	if got := snap.total("empower_mac_dropped_packets_total"); got != 6517 {
		t.Errorf("family total = %v, want 6517 (and not the series that merely shares a prefix)", got)
	}
	if got := snap["empower_mac_delivered_bits_total"]; got != 6.35548288e9 {
		t.Errorf("exponent value = %v", got)
	}
	if got := snap.total("missing"); got != 0 {
		t.Errorf("missing family = %v, want 0", got)
	}
	if _, err := parseProm([]byte("series not-a-number\n")); err == nil {
		t.Errorf("a non-numeric value must be an error")
	}
}

func TestPromDelta(t *testing.T) {
	before := promSnapshot{seriesEvents: 100, seriesHeapDepth: 9}
	after := promSnapshot{seriesEvents: 350, seriesHeapDepth: 15, seriesWALRecords: 7}
	d := after.delta(before)
	if d[seriesEvents] != 250 || d[seriesWALRecords] != 7 {
		t.Errorf("counter deltas = %v", d)
	}
	if d[seriesHeapDepth] != 15 {
		t.Errorf("heap depth is a max-merged gauge and must pass through, got %v", d[seriesHeapDepth])
	}
}

func TestParsePhases(t *testing.T) {
	out := []byte(`{"experiment":"churn-failover","seed":1,"result":{"runs":1},"phases":{"bind_seconds":0.000788537,"run_seconds":0.258688055,"collect_seconds":0.006696584}}` + "\n")
	ph, err := parsePhases(out)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Bind != 0.000788537 || ph.Run != 0.258688055 || ph.Collect != 0.006696584 {
		t.Errorf("phases = %+v", ph)
	}
	if _, err := parsePhases([]byte(`{"experiment":"churn-failover"}`)); err == nil {
		t.Errorf("an envelope without phases must be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (empower fleet (x)) S 1 4242 4242 0 -1 4194560 1 2 3 4 1234 56 7 8 20 0 5 0 100 200 300"
	cpu, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12900 * time.Millisecond; cpu != want {
		t.Errorf("cpu = %v, want %v (utime 1234 + stime 56 ticks)", cpu, want)
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Errorf("a truncated stat line must be an error")
	}
	// The reader must agree with the kernel on this process.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
}

func TestParseProcStatusRSS(t *testing.T) {
	status := "Name:\tempower-fleet\nVmPeak:\t  900000 kB\nVmRSS:\t   74312 kB\nThreads:\t5\n"
	kb, err := parseProcStatusRSS(status)
	if err != nil || kb != 74312 {
		t.Errorf("rss = %v, %v; want 74312", kb, err)
	}
	if _, err := parseProcStatusRSS("Name:\tx\n"); err == nil {
		t.Errorf("a status without VmRSS must be an error")
	}
	if kb, err := procRSSKB(os.Getpid()); err != nil || kb <= 0 {
		t.Errorf("procRSSKB(self) = %v, %v", kb, err)
	}
}
