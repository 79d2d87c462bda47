package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
)

// driverMetric is one value of the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one JSON object a -seconds run prints last.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverRun measures one workload for about -seconds and prints the result
// line: the end-to-end medians with -trace 0, the per-layer values of one
// traced pass with -trace 1.
func driverRun(o options) error {
	if o.workload == "" {
		return errors.New("-seconds needs -workload")
	}
	defs, err := o.selected()
	if err != nil {
		return err
	}
	gate, err := loadExpected(o.expected)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: commit %s, %s, nproc %d (%s), GOMAXPROCS=workers=%d, seed %d, loadavg(1m) %s\n",
		commit(), runtime.Version(), runtime.NumCPU(), cpuModel(), o.workers, o.seed, loadAvg1())
	b := budget{seconds: o.seconds}
	if o.trace == 1 {
		// The traced run needs untraced passes only to price the tracing
		// against (two, so one slow pass cannot fake an overhead); the rest
		// of the window is the traced pass and its probes.
		b = budget{reps: 2}
	}
	rep, err := measure(o, defs[0], b, o.trace == 1, gate)
	if err != nil {
		return err
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "bench:", p)
	}
	out := driverResult{
		Correct:   rep.correct(),
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]driverMetric{},
	}
	if o.trace == 1 {
		for _, m := range perLayerMetrics() {
			out.Metrics[m.Name] = driverMetric{Value: rep.PerLayer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEndMetrics() {
			out.Metrics[m.Name] = driverMetric{Value: rep.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	}
	fmt.Printf("%s seed %d (class %d/%d): %d pass(es), %d pairs attempted, %d failed\n",
		rep.Def.Name, rep.Seed, rep.Shard, rep.Def.NumShards, rep.EndToEnd["wall_s"].N, rep.Attempted, rep.Failed)
	return json.NewEncoder(os.Stdout).Encode(out)
}
