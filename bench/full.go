package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// document is one full set of measurements: what -json emits and what
// -agree compares two of.
type document struct {
	Env envRecord `json:"environment"`
	// Claim is always null: the benchmark measures, it never claims a gain.
	Claim     *string           `json:"claim"`
	EndToEnd  []metricDef       `json:"end_to_end"`
	PerLayer  []metricDef       `json:"per_layer"`
	Workloads []*workloadReport `json:"workloads"`
}

func (d *document) correct() bool {
	for _, r := range d.Workloads {
		if !r.correct() {
			return false
		}
	}
	return true
}

// runSet measures every selected workload once: -reps untraced passes and
// one traced pass each.
func runSet(o options, progress io.Writer) (*document, error) {
	defs, err := o.selected()
	if err != nil {
		return nil, err
	}
	gate, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	doc := &document{Env: environment(o, defs), EndToEnd: endToEndMetrics(), PerLayer: perLayerMetrics()}
	fmt.Fprintf(progress, "host: loadavg(1m) %s, spin calibration %.1f ms, %d cpus (%s)\n",
		doc.Env.LoadAvg1, doc.Env.SpinMS, doc.Env.NProc, doc.Env.CPUModel)
	for _, def := range defs {
		fmt.Fprintf(progress, "measuring %s (seed %d, %d untraced + 1 traced)...\n", def.Name, o.seed, o.reps)
		rep, err := measure(o, def, budget{reps: o.reps}, true, gate)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, rep)
	}
	return doc, nil
}

// fullRun is the default mode: one set, every metric printed by name.
func fullRun(o options) error {
	progress := io.Writer(os.Stdout)
	if o.jsonOut {
		progress = os.Stderr
	}
	doc, err := runSet(o, progress)
	if err != nil {
		return err
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		doc.print(os.Stdout)
	}
	if !doc.correct() {
		return errors.New("outputs are not correct (see the problems above)")
	}
	return nil
}

// print renders the set as text: every metric by name with its unit.
func (d *document) print(w io.Writer) {
	e := d.Env
	fmt.Fprintf(w, "\ncommit %s, %s, nproc %d, GOMAXPROCS %d, workers %d, seed %d, reps %d, scale %g\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Workers, e.Seed, e.Reps, e.Scale)
	for _, r := range d.Workloads {
		def, _ := json.Marshal(r.Def)
		fmt.Fprintf(w, "\n== %s  class %d/%d  %s\n", r.Def.Name, r.Shard, r.Def.NumShards, def)
		fmt.Fprintf(w, "   correct=%t attempted=%d failed=%d\n", r.correct(), r.Attempted, r.Failed)
		for _, p := range r.Problems {
			fmt.Fprintf(w, "   PROBLEM: %s\n", p)
		}
		fmt.Fprintln(w, "   end to end (untraced; median [min .. max] n):")
		for _, m := range d.EndToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "     %-40s %14.6g %-6s [%.6g .. %.6g] n=%d\n", m.Name, s.Median, m.Unit, s.Min, s.Max, s.N)
		}
		fmt.Fprintln(w, "   per layer (traced):")
		for _, m := range d.PerLayer {
			fmt.Fprintf(w, "     %-40s %14.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
		fmt.Fprintln(w, "   measured shares of sweep time:")
		for _, s := range layerShares(r.PerLayer) {
			fmt.Fprintf(w, "     %-40s %13.1f%%\n", s.name, 100*s.share)
		}
	}
}

type layerShare struct {
	name  string
	share float64
}

// layerShares groups the traced seconds the way README.md's prediction
// table does, as shares of the traced pass's process CPU. The generators
// are on their own thread clocks, so their share is exact; what is left is
// split among the worker spans in proportion to their wall time, which
// assumes the collector and the scheduler interrupt every kind of span
// alike. The last line is informational and overlaps the others.
func layerShares(l map[string]float64) []layerShare {
	gen := ratio(l["ace.enumerate_s"]+l["kvace.enumerate_s"], l["trace.cpu_s"])
	var workers float64
	for name, v := range l {
		if strings.HasPrefix(name, "fs.") && strings.HasSuffix(name, ".sweep_s") {
			workers += v
		}
	}
	of := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			sum += l[n]
		}
		return (1 - gen) * ratio(sum, workers)
	}
	return []layerShare{
		{"ace+kvace enumerate", gen},
		{"crashmonkey profile+checkpoint", of("crashmonkey.profile_s", "crashmonkey.checkpoint_s")},
		{"crashmonkey reorder+faults", of("crashmonkey.reorder_s", "crashmonkey.faults_s")},
		{"crashmonkey kv_*", of("crashmonkey.kv_profile_s", "crashmonkey.kv_checkpoint_s",
			"crashmonkey.kv_reorder_s", "crashmonkey.kv_faults_s")},
		{"report", of("report.group_s")},
		{"(runtime gc, spread over the above)", ratio(l["runtime.gc_cpu_s"], l["trace.cpu_s"])},
	}
}

// agreeRun runs two full sets back to back and compares them with the
// benchmark's own bounds: the check that the benchmark can tell a change
// from its own noise on this host.
func agreeRun(o options) error {
	var sets [2]*document
	for i := range sets {
		fmt.Printf("--- set %d\n", i+1)
		doc, err := runSet(o, os.Stdout)
		if err != nil {
			return err
		}
		if !doc.correct() {
			doc.print(os.Stdout)
			return fmt.Errorf("set %d: outputs are not correct", i+1)
		}
		sets[i] = doc
	}
	differs := 0
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		fmt.Printf("\n== %s\n", a.Def.Name)
		for _, m := range endToEndMetrics() {
			sa, sb := a.EndToEnd[m.Name], b.EndToEnd[m.Name]
			// How much worse the second median is than the first, as a
			// share of the first, in the metric's own direction — and the
			// same the other way round, so order does not matter.
			worse := math.Max(worsening(m, sa.Median, sb.Median), worsening(m, sb.Median, sa.Median))
			spread := math.Max(ratio(sa.Max-sa.Min, sa.Median), ratio(sb.Max-sb.Min, sb.Median))
			verdict := "agrees"
			switch {
			case spread > m.Bound:
				verdict = "unresolved" // the sets' own scatter is wider than the bound
			case worse > m.Bound:
				verdict = "DIFFERS"
				differs++
			}
			fmt.Printf("   %-18s %12.6g vs %12.6g %-5s  medians apart %5.1f%%, own spread %5.1f%%, bound %4.0f%%  %s\n",
				m.Name, sa.Median, sb.Median, m.Unit, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
		if d := diffRows(a.Rows, b.Rows); d != "" {
			fmt.Printf("   exact counts DIFFER: %s\n", d)
			differs++
		}
		for _, m := range perLayerMetrics() {
			if m.Exact && a.PerLayer[m.Name] != b.PerLayer[m.Name] {
				fmt.Printf("   exact count %s DIFFERS: %v vs %v\n", m.Name, a.PerLayer[m.Name], b.PerLayer[m.Name])
				differs++
			}
		}
	}
	if differs > 0 {
		return fmt.Errorf("the two sets disagree on %d metric(s)", differs)
	}
	fmt.Println("\nthe two sets agree within the bounds")
	return nil
}

// worsening is how much worse got is than base, as a share of base, in the
// metric's direction (negative when got is better).
func worsening(m metricDef, base, got float64) float64 {
	if m.Better == "higher" {
		return ratio(base-got, base)
	}
	return ratio(got-base, base)
}
