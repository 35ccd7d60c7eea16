package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp records the machine a result was measured on.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
}

func machineStamp() stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				st.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			st.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return st
}

// warnIfLoaded refuses nothing: a loaded machine still measures, but the
// reader should know.
func (st stamp) warnIfLoaded() {
	if limit := float64(st.NumCPU) - 0.5; st.Load1 > limit {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average %.2f exceeds nproc-0.5 = %.1f; timings will be noisy\n",
			st.Load1, limit)
	}
}
