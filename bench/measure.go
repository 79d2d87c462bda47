package main

import (
	"fmt"
	"os"
	"time"
)

// summary is one end-to-end metric over the untraced passes of a workload.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// workloadReport is everything measured for one workload at one seed.
type workloadReport struct {
	Def      workloadDef        `json:"workload"`
	Seed     int64              `json:"seed"`
	Shard    int                `json:"shard"`
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Rows are the exact per-backend counts every pass agreed on.
	Rows []rowCounts `json:"rows"`
	// Attempted counts workload×backend pairs over all passes; Failed the
	// errored workloads plus verdict mismatches among them.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Problems lists every way the passes disagreed with each other or
	// with expected.json; empty means the outputs are correct.
	Problems []string `json:"problems,omitempty"`
}

func (r *workloadReport) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// endToEndOf derives one pass's end-to-end metric values.
func endToEndOf(p *passResult) map[string]float64 {
	return map[string]float64{
		"setup_s":         p.SetupS,
		"wall_s":          p.WallS,
		"cpu_s":           p.CPUS,
		"workloads_per_s": ratio(float64(p.Pairs), p.WallS),
		"states_per_s":    ratio(float64(p.EnumStates), p.WallS),
		"alloc_mb":        p.AllocMB,
	}
}

// summarise folds the untraced passes into per-metric medians.
func summarise(passes []*passResult) map[string]summary {
	out := map[string]summary{}
	for _, m := range endToEndMetrics() {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, endToEndOf(p)[m.Name])
		}
		out[m.Name] = summaryOf(xs)
	}
	return out
}

func summaryOf(xs []float64) summary {
	return summary{Median: median(xs), Min: quantile(xs, 0), Max: quantile(xs, 1), N: len(xs)}
}

// extraSetups is how many set-up-only children a measurement adds to the
// set-up samples its passes already gave.
const extraSetups = 12

// budget says how many untraced passes a measurement makes: a fixed count
// (reps > 0) or as many as fit in a wall-clock window (seconds > 0), always
// at least one.
type budget struct {
	reps    int
	seconds int
}

// measure runs the untraced passes of def and, when traced is set, the one
// traced pass, and checks every pass against the others and the gate.
func measure(o options, def workloadDef, b budget, traced bool, gate *expectedFile) (*workloadReport, error) {
	rep := &workloadReport{Def: def, Seed: o.seed, Shard: def.shardOf(o.seed)}
	start := time.Now()
	var passes []*passResult
	for {
		t0 := time.Now()
		p, err := spawnPass(o.ctx, o.pass(def, modeUntraced))
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		rep.check(p, "untraced", gate, o)
		if o.verbose {
			fmt.Fprintf(os.Stderr, "%s pass %d: setup %.4fs wall %.3fs cpu %.3fs alloc %.0fMiB rss %.1fMiB\n",
				def.Name, len(passes), p.SetupS, p.WallS, p.CPUS, p.AllocMB, p.PeakRSSMB)
		}
		if b.reps > 0 {
			if len(passes) >= b.reps {
				break
			}
			continue
		}
		// Stop when one more pass of the same length would overrun the
		// window by more than a tenth.
		last := time.Since(t0)
		if time.Since(start)+last > time.Duration(float64(b.seconds)*1.1*float64(time.Second)) {
			break
		}
	}
	rep.EndToEnd = summarise(passes)
	// Set-up is a few milliseconds of process start, so three samples of it
	// are mostly operating-system scatter. Set up several more times — the
	// same child, stopped where the campaign call would begin — and report
	// the median of them all.
	setups := make([]float64, 0, len(passes)+extraSetups)
	for _, p := range passes {
		setups = append(setups, p.SetupS)
	}
	for i := 0; i < extraSetups; i++ {
		p, err := spawnPass(o.ctx, o.pass(def, modeSetup))
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.SetupS)
	}
	rep.EndToEnd["setup_s"] = summaryOf(setups)
	if !traced {
		return rep, nil
	}
	tp, err := spawnPass(o.ctx, o.pass(def, modeTraced))
	if err != nil {
		return nil, err
	}
	rep.check(tp, "traced", gate, o)
	rep.PerLayer = tp.Layers
	if rep.PerLayer == nil {
		rep.PerLayer = map[string]float64{}
	}
	wall := rep.EndToEnd["wall_s"].Median
	rep.PerLayer["trace.overhead_ratio"] = ratio(tp.WallS, wall)
	rep.PerLayer["campaign.cpu_utilisation"] = ratio(rep.EndToEnd["cpu_s"].Median, wall*float64(o.workers))
	var rss []float64
	for _, p := range passes {
		rss = append(rss, p.PeakRSSMB)
	}
	rep.PerLayer["peak_rss_mb"] = median(rss)
	rep.PerLayer["bug_groups"] = float64(tp.groups())
	rep.PerLayer["failed_share"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	for _, m := range perLayerMetrics() {
		if _, ok := rep.PerLayer[m.Name]; !ok {
			rep.Problems = append(rep.Problems, fmt.Sprintf("traced pass reported no %s", m.Name))
		}
	}
	return rep, nil
}

// check folds one pass into the report: its pairs are attempted, its errors
// failed, and its exact counts must equal the first pass's and — at scale 1,
// for a pinned class — expected.json's.
func (r *workloadReport) check(p *passResult, what string, gate *expectedFile, o options) {
	r.Attempted += p.Pairs
	r.Failed += p.errors()
	if r.Rows == nil {
		r.Rows = p.Rows
	} else if d := diffRows(r.Rows, p.Rows); d != "" {
		r.Problems = append(r.Problems, fmt.Sprintf("%s pass disagrees with the first pass: %s", what, d))
		r.Failed++
	}
	if o.scale != 1 {
		return
	}
	for _, row := range p.Rows {
		if row.Generated != r.Def.SpaceSize {
			r.Problems = append(r.Problems, fmt.Sprintf("%s pass: %s enumerated %d workloads, the frozen space holds %d",
				what, row.FS, row.Generated, r.Def.SpaceSize))
			r.Failed++
		}
	}
	if want := gate.rows(r.Def, r.Shard); want != nil {
		if d := diffRows(want, p.Rows); d != "" {
			r.Problems = append(r.Problems, fmt.Sprintf("%s pass disagrees with %s: %s", what, o.expected, d))
			r.Failed++
		}
	}
}

// diffRows names the first difference between two sets of exact counts
// ("" when identical).
func diffRows(want, got []rowCounts) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("%s: have %+v, want %+v", want[i].FS, got[i], want[i])
		}
	}
	return ""
}
