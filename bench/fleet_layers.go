package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"b3"
	"b3/internal/bugs"
	"b3/internal/campaign"
	"b3/internal/corpus"
	"b3/internal/fleet"
	"b3/internal/report"
)

// fleetLayers turns the traced fleet rounds into per-layer metrics. What
// happens inside a leased sweep is invisible from outside the worker, so the
// crashmonkey counts come from the merged report, and the durable-file
// layers (corpus, ledger, merge, restart) are probed with bare calls on the
// last round's finished directory.
func fleetLayers(spec passSpec, lanes *tracer, rounds []*fleetRound, res *passResult) (map[string]float64, error) {
	def := spec.Def
	last := rounds[len(rounds)-1]
	layers := map[string]float64{}
	for _, m := range perLayerMetrics() {
		layers[m.Name] = 0
	}

	// Counts the merged report carries.
	var states, ckpt, ckptPruned, rStates, rSkipped, replayed float64
	for _, r := range last.Merge.Rows {
		s := r.Stats
		ckpt += float64(s.StatesTotal)
		ckptPruned += float64(s.StatesPruned)
		rStates += float64(s.ReorderStates)
		rSkipped += float64(s.ReorderPruned + s.ReorderClassSkipped + s.ReorderCommuteSkipped)
		replayed += float64(s.ReplayedWrites)
		layers["ace.enumerated"] += float64(s.Generated)
		layers["fs."+s.FSName+".sweep_s"] = r.TotalShardTime.Seconds()
	}
	states = ckpt + rStates
	layers["ace.streamed"] = layers["ace.enumerated"]
	layers["ace.useful_ratio"] = 1
	layers["crashmonkey.checkpoint_states"] = ckpt
	layers["crashmonkey.checkpoint_pruned_ratio"] = ratio(ckptPruned, ckpt)
	layers["crashmonkey.reorder_states"] = rStates
	layers["crashmonkey.reorder_skip_ratio"] = ratio(rSkipped, rStates)
	layers["crashmonkey.prune_hit_ratio"] = ratio(ckptPruned+rSkipped, states)
	layers["crashmonkey.replayed_writes_per_state"] = ratio(replayed, states)
	layers["report.groups"] = float64(res.groups())

	// Corpus: read side, then the write side replayed onto a scratch shard.
	t := time.Now()
	shards, err := corpus.LoadDir(last.Dir)
	if err != nil {
		return nil, err
	}
	layers["corpus.load_s"] = time.Since(t).Seconds()
	layers["last_new_group_workloads"] = float64(lastNewGroup(shards))
	if err := probeCorpus(spec.OutDir, shards, layers); err != nil {
		return nil, err
	}
	t = time.Now()
	if _, err := campaign.MergeDir(last.Dir, b3.KnownBugDB); err != nil {
		return nil, err
	}
	layers["campaign.merge_s"] = time.Since(t).Seconds()

	// Ledger: what the measured round journaled, then a restart on it.
	ledger, events, err := fleet.OpenLedger(last.Dir, last.Spec)
	if err != nil {
		return nil, err
	}
	ledger.Close()
	for _, e := range events {
		switch e.Kind {
		case fleet.EventGrant:
			layers["fleet.leases_granted"]++
		case fleet.EventSplit:
			layers["fleet.splits"]++
		case fleet.EventExpire:
			layers["fleet.expiries"]++
		case fleet.EventComplete, fleet.EventRelease:
		}
	}
	t = time.Now()
	coord, err := fleet.NewCoordinator(last.Spec, fleet.Options{KnownDBFor: b3.KnownBugDB})
	if err != nil {
		return nil, err
	}
	_, werr := coord.Wait()
	layers["fleet.restart_replay_ms"] = float64(time.Since(t)) / 1e6
	if cerr := coord.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("restart on the finished ledger: %w", werr)
	}
	if err := probeLedger(spec.OutDir, def, layers); err != nil {
		return nil, err
	}

	// The same tier unsharded, in process: what the fleet's makespan is a
	// multiple of.
	base := spec
	base.Mode = modeUntraced
	unsharded, err := runMatrix(base)
	if err != nil {
		return nil, err
	}
	if d := diffRows(res.Rows, unsharded.Rows); d != "" {
		return nil, fmt.Errorf("%s: merged fleet report differs from the unsharded campaign: %s", def.Name, d)
	}
	var makespans []float64
	for _, r := range rounds {
		makespans = append(makespans, r.MakespanS)
	}
	layers["fleet.makespan_over_unsharded"] = ratio(median(makespans), unsharded.WallS)

	// One round whose idle workers are left to notice completion themselves.
	tail, err := runFleetRound(def, spec.OutDir, false, nil)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(tail.Dir)
	layers["fleet.worker_exit_tail_s"] = tail.ExitTailS

	// The sweeps run inside fleet.Worker, out of reach of spans; what the
	// lanes can say is how much of the workers' measured time was under one.
	layers["trace.accounted_share"] = min(1, ratio(lanes.totals()["fleet.worker_run"], float64(def.FleetWorkers)*res.WallS))
	layers["trace.cpu_s"] = res.CPUS
	return layers, nil
}

// lastNewGroup is the detection-speed metric from corpus shards: per
// backend, the position in sequence order of the workload that produced the
// last bug group to appear; the maximum over backends.
func lastNewGroup(shards []*corpus.LoadedShard) int64 {
	type rec struct {
		seq  int64
		keys []report.GroupKey
	}
	perFS := map[string][]rec{}
	for _, s := range shards {
		for _, r := range s.Records {
			rc := rec{seq: r.Seq}
			for _, rr := range r.Reports {
				sk := rr.Skeleton
				if sk == "" {
					sk = r.Skeleton
				}
				rc.keys = append(rc.keys, report.GroupKey{Skeleton: sk, Consequence: bugs.Consequence(rr.Primary)})
			}
			perFS[s.Meta.FS] = append(perFS[s.Meta.FS], rc)
		}
	}
	var worst int64
	for _, recs := range perFS {
		sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
		seen := map[report.GroupKey]bool{}
		for pos, rc := range recs {
			for _, k := range rc.keys {
				if !seen[k] {
					seen[k] = true
					worst = max(worst, int64(pos+1))
				}
			}
		}
	}
	return worst
}

// probeCorpus replays the round's own records onto a scratch shard:
// buffered appends timed per record, then one checkpoint (flush + fsync)
// per DefaultFlushEvery records, as a live campaign issues them.
func probeCorpus(outDir string, shards []*corpus.LoadedShard, layers map[string]float64) error {
	dir, err := fleetDir(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	shard, err := corpus.Create(dir, "probe", corpus.Meta{FS: "probe", Bounds: "probe"})
	if err != nil {
		return err
	}
	defer shard.Close()
	shard.FlushEvery = 0 // checkpoints are issued, and timed, by hand
	var appendNS, records int64
	var fsyncUS []float64
	for _, s := range shards {
		for _, r := range s.Records {
			t := time.Now()
			if err := shard.Append(r); err != nil {
				return err
			}
			appendNS += int64(time.Since(t))
			records++
			if records%corpus.DefaultFlushEvery == 0 {
				t = time.Now()
				if err := shard.Checkpoint(); err != nil {
					return err
				}
				fsyncUS = append(fsyncUS, float64(time.Since(t))/1e3)
			}
		}
	}
	if err := shard.Close(); err != nil {
		return err
	}
	st, err := os.Stat(shard.Path())
	if err != nil {
		return err
	}
	layers["corpus.append_ns_per_record"] = ratio(float64(appendNS), float64(records))
	layers["corpus.checkpoint_fsync_us_p50"] = quantile(fsyncUS, 0.5)
	layers["corpus.bytes_per_record"] = ratio(float64(st.Size()), float64(records))
	return nil
}

// probeLedger times the coordinator's two durable/remote primitives on a
// scratch fleet: a journaled event append (write + fsync), and a lease
// round trip — POST /v1/lease then POST /v1/complete — from the
// benchmark's own HTTP client.
func probeLedger(outDir string, def workloadDef, layers map[string]float64) error {
	const n = 32
	dir, err := fleetDir(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// More classes than round trips, so the probe fleet never completes
	// (completion would merge a corpus that does not exist).
	spec, err := fleet.TierSpec(def.Tier, dir, 2*n)
	if err != nil {
		return err
	}
	coord, err := fleet.NewCoordinator(spec, fleet.Options{})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(coord)
	post := func(path string, req, resp any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		data, err := io.ReadAll(r.Body)
		if err != nil {
			return err
		}
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %d %s", path, r.StatusCode, bytes.TrimSpace(data))
		}
		return json.Unmarshal(data, resp)
	}
	var rttUS []float64
	for i := 0; i < n && err == nil; i++ {
		var lease fleet.LeaseResponse
		t := time.Now()
		if err = post("/v1/lease", fleet.LeaseRequest{Worker: "probe"}, &lease); err == nil {
			err = post("/v1/complete", fleet.CompleteRequest{Lease: lease.Lease}, &struct{}{})
		}
		rttUS = append(rttUS, float64(time.Since(t))/1e3)
	}
	srv.Close()
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("lease probe: %w", err)
	}
	layers["fleet.lease_rtt_us_p50"] = quantile(rttUS, 0.5)

	ledger, _, err := fleet.OpenLedger(dir, spec)
	if err != nil {
		return err
	}
	defer ledger.Close()
	var appendUS []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		// A release of a lease nobody holds: well-formed, and never replayed
		// (the scratch directory is deleted with the probe).
		if err := ledger.Append(fleet.Event{Kind: fleet.EventRelease, Class: fleet.Class{R: 0, N: 2 * n}, Lease: int64(1000 + i)}); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(time.Since(t))/1e3)
	}
	layers["fleet.ledger_append_us_p50"] = quantile(appendUS, 0.5)
	return nil
}
