package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envRecord says where and how a set of numbers was measured. Every output
// carries one, so a number is never read without its machine and settings.
type envRecord struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	NProc      int           `json:"nproc"`
	CPUModel   string        `json:"cpu_model"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Seed       int64         `json:"seed"`
	Reps       int           `json:"reps"`
	Scale      float64       `json:"scale"`
	LoadAvg1   string        `json:"loadavg_1min"`
	SpinMS     float64       `json:"spin_calibration_ms"`
	Workloads  []workloadDef `json:"workloads"`
}

// environment gathers the record for this invocation. GOMAXPROCS is the
// value every pass is pinned to, not this parent's.
func environment(o options, defs []workloadDef) envRecord {
	return envRecord{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: o.workers,
		Workers:    o.workers,
		Seed:       o.seed,
		Reps:       o.reps,
		Scale:      o.scale,
		LoadAvg1:   loadAvg1(),
		SpinMS:     spinCalibration(),
		Workloads:  defs,
	}
}

// commit is the VCS revision the binary was built from, as the go tool
// stamped it ("unknown" outside a repository, "+dirty" with local edits).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func loadAvg1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	first, _, _ := strings.Cut(string(data), " ")
	return first
}

// spinSink keeps the calibration loop from being optimised away.
var spinSink uint64

// spinCalibration times a fixed integer loop, in ms. The same binary on a
// quiet host always takes about as long; a larger figure in a log means the
// host was busy or throttled when that set ran.
func spinCalibration() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t)) / 1e6
}
