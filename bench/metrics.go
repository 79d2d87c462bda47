package main

import (
	"encoding/json"
	"sort"
)

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a count that must repeat bit-for-bit between two passes
	// over the same class.
	Exact bool `json:"exact,omitempty"`
}

// endToEndMetrics are measured on untraced passes only, in this order.
// BENCHMARK.json lists the same names, units, directions and bounds;
// bench_test.go holds the two together.
//
// Every bound is 0.25, the widest the driver accepts, because the reference
// box is a 2-vCPU microVM whose speed drifts by ±10 % over minutes whatever
// runs on it (identical fleet-quick inputs: quartile spread 9.8 % of the
// median over ten 20 s runs; README.md, "Noise"). A bound has to clear the
// host's own scatter before it can say anything about a change.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "workloads_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "states_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		// The one end-to-end number this host can resolve finely: bytes
		// allocated are a property of the work, not of when it ran.
		{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	}
}

// perLayerMetrics are measured on the traced pass, in this order.
func perLayerMetrics() []metricDef {
	c := func(name string) metricDef { return metricDef{Name: name, Unit: "count", Better: "lower"} }
	exact := func(name string) metricDef {
		return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true}
	}
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	return []metricDef{
		// The verdict: exact, and gated against expected.json.
		{Name: "bug_groups", Unit: "count", Better: "higher", Exact: true},
		exact("last_new_group_workloads"),
		lo("failed_share", "ratio"),
		// The untraced passes' median ru_maxrss. Not an end-to-end metric:
		// on the reference box the same pass peaks anywhere from 36 to
		// 97 MiB depending on how far the collector fell behind.
		lo("peak_rss_mb", "MiB"),

		lo("ace.enumerate_s", "s"),
		lo("ace.ns_per_enumerated", "ns"),
		exact("ace.enumerated"),
		exact("ace.streamed"),
		hi("ace.useful_ratio", "ratio"),
		lo("kvace.enumerate_s", "s"),
		exact("kvace.enumerated"),

		lo("crashmonkey.profile_s", "s"),
		lo("crashmonkey.profile_us_p50", "us"),
		lo("crashmonkey.profile_us_p99", "us"),
		lo("crashmonkey.checkpoint_s", "s"),
		lo("crashmonkey.construct_s", "s"),
		lo("crashmonkey.check_s", "s"),
		lo("crashmonkey.check_us_p50", "us"),
		lo("crashmonkey.check_us_p99", "us"),
		exact("crashmonkey.checkpoint_states"),
		hi("crashmonkey.checkpoint_pruned_ratio", "ratio"),
		lo("crashmonkey.reorder_s", "s"),
		exact("crashmonkey.reorder_states"),
		lo("crashmonkey.reorder_us_per_state", "us"),
		hi("crashmonkey.reorder_skip_ratio", "ratio"),
		lo("crashmonkey.faults_s", "s"),
		exact("crashmonkey.fault_states"),
		lo("crashmonkey.fault_us_per_state", "us"),
		hi("crashmonkey.fault_skip_ratio", "ratio"),
		lo("crashmonkey.kv_profile_s", "s"),
		lo("crashmonkey.kv_checkpoint_s", "s"),
		lo("crashmonkey.kv_reorder_s", "s"),
		lo("crashmonkey.kv_faults_s", "s"),
		hi("crashmonkey.prune_hit_ratio", "ratio"),
		c("crashmonkey.prune_evictions"),
		c("crashmonkey.prune_distinct_states"),
		lo("crashmonkey.replayed_writes_per_state", "count"),

		lo("blockdev.cursor_ns_per_state", "ns"),
		lo("blockdev.reorder_enum_ns_per_state", "ns"),
		lo("blockdev.fault_enum_ns_per_state", "ns"),
		lo("blockdev.fingerprint_ns_per_block", "ns"),
		c("blockdev.blocks_read"),
		lo("blockdev.bytes_allocated", "B"),

		lo("fs.mkfs_us_p50", "us"),
		lo("fs.recover_mount_us_p50", "us"),
		lo("fs.recover_mount_us_p99", "us"),
		exact("fs.fsck_runs"),
		lo("fs.logfs.sweep_s", "s"),
		lo("fs.journalfs.sweep_s", "s"),
		lo("fs.f2fsim.sweep_s", "s"),
		lo("fs.fscqsim.sweep_s", "s"),
		lo("fs.diskfmt.sweep_s", "s"),

		lo("kvstore.put_sync_us_p50", "us"),
		lo("kvstore.flush_us_p50", "us"),
		lo("kvstore.open_replay_us_p50", "us"),
		lo("kvstore.wal_encode_ns_per_record", "ns"),
		lo("kvoracle.build_us_p50", "us"),
		lo("kvoracle.check_ns_per_state", "ns"),
		exact("kvoracle.legal"),
		exact("kvoracle.lost_ack"),
		exact("kvoracle.resurrected"),
		exact("kvoracle.unreplayable"),

		lo("report.group_s", "s"),
		exact("report.groups"),

		lo("corpus.append_ns_per_record", "ns"),
		lo("corpus.checkpoint_fsync_us_p50", "us"),
		lo("corpus.bytes_per_record", "B"),
		lo("corpus.load_s", "s"),
		lo("campaign.merge_s", "s"),
		hi("campaign.cpu_utilisation", "ratio"),

		lo("fleet.lease_rtt_us_p50", "us"),
		lo("fleet.ledger_append_us_p50", "us"),
		c("fleet.leases_granted"),
		c("fleet.splits"),
		c("fleet.expiries"),
		lo("fleet.makespan_over_unsharded", "ratio"),
		lo("fleet.worker_exit_tail_s", "s"),
		lo("fleet.restart_replay_ms", "ms"),

		lo("runtime.alloc_mb", "MiB"),
		lo("runtime.allocs_per_workload", "count"),
		lo("runtime.gc_cpu_s", "s"),
		c("runtime.gc_cycles"),

		lo("trace.overhead_ratio", "ratio"),
		hi("trace.accounted_share", "ratio"),
		lo("trace.cpu_s", "s"),
	}
}

// runSeconds is how long the driver lets one run measure (BENCHMARK.json
// "run_seconds"): three to four passes of every workload.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the catalogue above, so the
// file the driver reads can never name a metric the program does not print.
// `go run ./bench -benchmark-json > BENCHMARK.json` rewrites it.
func benchmarkJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloadDefs() {
		doc.Workloads = append(doc.Workloads, workload{d.Name, d.Why})
	}
	for _, m := range endToEndMetrics() {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerMetrics() {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	return append(data, '\n'), err
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// ratio is a/b, 0 when b is 0 (a layer that did not run reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
