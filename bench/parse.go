package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// promSnapshot is a parsed Prometheus text exposition: series name,
// labels included verbatim (`name{reason="dead-link"}`), to value.
type promSnapshot map[string]float64

// parseProm reads the text format the repo's obs registry writes:
// `# HELP` / `# TYPE` comments and `series value` lines.
func parseProm(data []byte) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		snap[strings.TrimSpace(line[:cut])] = v
	}
	return snap, sc.Err()
}

// total sums a family: the bare series plus every labelled series of the
// same name (the per-reason drop counters).
func (s promSnapshot) total(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// phases is the `phases` object empower-scenario adds under -phases -json:
// worker time summed over replications.
type phases struct {
	Bind    float64 `json:"bind_seconds"`
	Run     float64 `json:"run_seconds"`
	Collect float64 `json:"collect_seconds"`
}

// parsePhases extracts the phase breakdown from an empower-scenario JSON
// envelope.
func parsePhases(out []byte) (phases, error) {
	var env struct {
		Phases *phases `json:"phases"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		return phases{}, fmt.Errorf("phases: %w", err)
	}
	if env.Phases == nil {
		return phases{}, fmt.Errorf("phases: output carries no phases object")
	}
	return *env.Phases, nil
}

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux configuration Go supports;
// reading it exactly needs sysconf, which needs cgo.
const clockTick = 100

// parseProcStatCPU returns user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseProcStatusRSS returns VmRSS in kilobytes from the contents of
// /proc/<pid>/status.
func parseProcStatusRSS(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmRSS:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmRSS line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmRSS line")
}

func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

func procRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatusRSS(string(data))
}
