package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"b3"
	"b3/internal/report"
)

// passMode selects what one child process runs.
type passMode string

const (
	// modeUntraced calls the program's own campaign entry point and times
	// it from outside: the source of every end-to-end metric.
	modeUntraced passMode = "untraced"
	// modeTraced drives the same per-workload pipeline from exported calls
	// with a span around each, then runs the bare-call layer probes.
	modeTraced passMode = "traced"
	// modeSetup does everything up to the campaign call and stops: one more
	// sample of setup_s.
	modeSetup passMode = "setup"
	// modeReference runs the unpruned scratch engines at Workers=1: the
	// verdict gate's source of truth (-record-expected).
	modeReference passMode = "reference"
)

// passSpec is everything a child needs; the parent sends it as one JSON
// argument so parent and child can never disagree on a default.
type passSpec struct {
	Def     workloadDef `json:"def"`
	Seed    int64       `json:"seed"`
	Workers int         `json:"workers"`
	Mode    passMode    `json:"mode"`
	OutDir  string      `json:"out_dir"`
	// StartNS is the parent's wall clock just before exec; setup_s is
	// measured from it, so process start-up counts as set-up.
	StartNS int64 `json:"start_ns"`
}

// rowCounts are the exact, schedule-independent counts of one matrix row
// (one backend). Two passes over the same class must produce identical
// rowCounts whatever engine, worker count or cache state they ran with.
type rowCounts struct {
	FS            string   `json:"fs"`
	Generated     int64    `json:"generated"`
	Tested        int64    `json:"tested"`
	Failing       int64    `json:"failing"`
	Errors        int64    `json:"errors"`
	Groups        int      `json:"groups"`
	GroupHash     string   `json:"group_hash"`
	States        int64    `json:"states"`
	ReorderStates int64    `json:"reorder_states"`
	ReorderBroken int64    `json:"reorder_broken"`
	FaultStates   int64    `json:"fault_states"`
	FaultBroken   int64    `json:"fault_broken"`
	KV            [4]int64 `json:"kv"` // legal, lost-ack, resurrected, unreplayable
}

// passResult is what one child reports back.
type passResult struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	// AllocMB is the heap the campaign call allocated in total (MiB):
	// unlike the high-water mark below it does not depend on when the
	// collector happened to run.
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Pairs is the number of workload×backend pairs of the class (tested
	// plus exactly-accounted skips); EnumStates the crash states the class
	// enumerates. Both are functions of the class, not of pruning.
	Pairs      int64       `json:"pairs"`
	EnumStates int64       `json:"enum_states"`
	Rows       []rowCounts `json:"rows"`
	// Layers holds the per-layer metrics of a traced pass, by name.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// errors sums the errored workloads over rows.
func (r *passResult) errors() int64 {
	var n int64
	for _, row := range r.Rows {
		n += row.Errors
	}
	return n
}

// groups sums the bug groups over rows.
func (r *passResult) groups() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Groups
	}
	return n
}

// groupHash digests the sorted group keys of one row, so two runs can be
// compared for "the same bug groups" without shipping the groups around.
func groupHash(groups []*report.Group) string {
	keys := make([]string, 0, len(groups))
	for _, g := range groups {
		keys = append(keys, fmt.Sprintf("%s|%d", g.Key.Skeleton, g.Key.Consequence))
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// countsOf extracts a row's exact counts from campaign statistics.
func countsOf(s *b3.CampaignStats) rowCounts {
	return rowCounts{
		FS:            s.FSName,
		Generated:     s.Generated,
		Tested:        s.Tested,
		Failing:       s.Failed,
		Errors:        s.Errors,
		Groups:        len(s.Groups),
		GroupHash:     groupHash(s.Groups),
		States:        s.StatesTotal,
		ReorderStates: s.ReorderStates,
		ReorderBroken: s.ReorderBroken,
		FaultStates:   s.FaultStates(),
		FaultBroken:   s.FaultBroken(),
		KV: [4]int64{s.KVClasses.Legal, s.KVClasses.LostAck,
			s.KVClasses.Resurrected, s.KVClasses.Unreplayable},
	}
}

// sortRows orders rows by backend name, so passes that list their backends
// differently (a matrix in registry order, a merge in name order) compare.
func sortRows(rows []rowCounts) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].FS < rows[j].FS })
}

// enumStates is the crash states a row enumerated on all three axes.
func (c rowCounts) enumStates() int64 { return c.States + c.ReorderStates + c.FaultStates }

// cpuSeconds returns this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns this process's high-water resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocatedMB is the cumulative heap this process has allocated, in MiB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// sinceStart is the set-up time so far: wall clock since the parent's
// pre-exec timestamp.
func (p passSpec) sinceStart() float64 {
	return float64(time.Now().UnixNano()-p.StartNS) / 1e9
}

// childMain is the body of one child process: run one pass, print its
// result as one JSON line.
func childMain(specJSON string) error {
	var spec passSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	runtime.GOMAXPROCS(spec.Workers)
	var (
		res *passResult
		err error
	)
	switch {
	case spec.Mode == modeSetup:
		res, err = runSetup(spec)
	case spec.Def.isFleet() && spec.Mode == modeReference:
		res, err = runMatrix(spec) // the unsharded reference of the tier
	case spec.Def.isFleet():
		res, err = runFleet(spec)
	case spec.Mode == modeTraced:
		res, err = runTraced(spec)
	default:
		res, err = runMatrix(spec)
	}
	if err != nil {
		return err
	}
	res.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runMatrix is the untraced (or reference) pass of a matrix workload: one
// call of the facade's RunCampaignMatrix, timed from outside.
func runMatrix(spec passSpec) (*passResult, error) {
	def := spec.Def
	fss, err := def.backends()
	if err != nil {
		return nil, err
	}
	c, err := def.campaign(spec.Seed, spec.Workers, spec.Mode == modeReference)
	if err != nil {
		return nil, err
	}
	res := &passResult{SetupS: spec.sinceStart()}
	alloc0 := allocatedMB()
	cpu0, t0 := cpuSeconds(), time.Now()
	m, err := b3.RunCampaignMatrix(c, fss)
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.AllocMB = allocatedMB() - alloc0
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	for _, s := range m.PerFS {
		row := countsOf(s)
		res.Rows = append(res.Rows, row)
		res.Pairs += classSize(c, s.Generated)
		res.EnumStates += row.enumStates()
	}
	sortRows(res.Rows)
	return res, nil
}

// runSetup performs a pass's set-up — what runMatrix does before its
// campaign call, what runFleet does before each round's workers start — and
// nothing else.
func runSetup(spec passSpec) (*passResult, error) {
	def := spec.Def
	if def.isFleet() {
		res := &passResult{SetupS: spec.sinceStart()}
		for i := 0; i < def.Rounds; i++ {
			f, err := openFleet(def, spec.OutDir, nil)
			if err != nil {
				return nil, err
			}
			res.SetupS += f.setupS
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	if _, err := def.backends(); err != nil {
		return nil, err
	}
	if _, err := def.campaign(spec.Seed, spec.Workers, false); err != nil {
		return nil, err
	}
	return &passResult{SetupS: spec.sinceStart()}, nil
}

// spawnPass runs one pass in a fresh child process and decodes its result.
// The child inherits stderr, so its diagnostics reach the user; its stdout
// is the result line.
func spawnPass(ctx context.Context, spec passSpec) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec.StartNS = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s pass: %w", spec.Def.Name, spec.Mode, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s %s pass: decoding result: %w", spec.Def.Name, spec.Mode, err)
	}
	return &res, nil
}
