package main

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"b3"
	"b3/internal/campaign"
	"b3/internal/fleet"
)

// fleetRound is one complete sweep of the tier through a fresh coordinator.
type fleetRound struct {
	SetupS    float64 // temp dir + spec + coordinator/ledger/listener open
	MakespanS float64 // coordinator up → Wait returns the merged report
	CPUS      float64 // process CPU over the makespan
	AllocMB   float64 // heap allocated over the makespan
	// ExitTailS is Wait returning → the last worker's Run returning.
	ExitTailS float64
	Dir       string
	Spec      fleet.Spec
	Merge     *campaign.Merge
}

// fleetDir makes a fresh corpus directory for one round under the
// benchmark's own output directory (never the system temp dir: a run
// reads and writes only inside its checkout).
func fleetDir(outDir string) (string, error) {
	base := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "fleet-")
}

// openedFleet is a coordinator serving its pull protocol on a fresh corpus
// directory, before any worker has asked for a lease.
type openedFleet struct {
	dir    string
	spec   fleet.Spec
	coord  *fleet.Coordinator
	srv    *httptest.Server
	setupS float64
}

// openFleet is a round's set-up: temp dir, spec, coordinator (which opens
// and fsyncs the ledger), listener.
func openFleet(def workloadDef, outDir string, main *lane) (*openedFleet, error) {
	t0 := time.Now()
	dir, err := fleetDir(outDir)
	if err != nil {
		return nil, err
	}
	spec, err := fleet.TierSpec(def.Tier, dir, def.FleetShards)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sp := main.begin("fleet.coordinator_open", 0)
	coord, err := fleet.NewCoordinator(spec, fleet.Options{KnownDBFor: b3.KnownBugDB})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := httptest.NewServer(coord)
	main.end(sp)
	return &openedFleet{dir: dir, spec: spec, coord: coord, srv: srv, setupS: time.Since(t0).Seconds()}, nil
}

// close stops the listener and the coordinator and deletes the directory.
func (f *openedFleet) close() error {
	f.srv.Close()
	err := f.coord.Close()
	os.RemoveAll(f.dir)
	return err
}

// runFleetRound lets FleetWorkers in-process workers drain a fresh
// coordinator and returns once the merged report is in. With interrupt set
// the idle workers are stopped through Worker.Interrupt as soon as the
// report is in; without it they are left to notice completion on their own,
// which is what fleet.worker_exit_tail_s measures. lanes is nil on an
// untraced pass. The round's directory is left for the caller to remove.
func runFleetRound(def workloadDef, outDir string, interrupt bool, lanes *tracer) (*fleetRound, error) {
	main := lanes.lane(0)
	f, err := openFleet(def, outDir, main)
	if err != nil {
		return nil, err
	}
	round := &fleetRound{SetupS: f.setupS, Dir: f.dir, Spec: f.spec}

	stop := make(chan struct{})
	errs := make([]error, def.FleetWorkers)
	var wg sync.WaitGroup
	alloc0 := allocatedMB()
	cpu0, start := cpuSeconds(), time.Now()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ln := lanes.lane(1 + i)
			sp := ln.begin("fleet.worker_run", 0)
			errs[i] = (&fleet.Worker{
				URL:       f.srv.URL,
				ID:        fmt.Sprintf("bench-%d", i),
				Workers:   1,
				Interrupt: stop,
			}).Run()
			ln.end(sp)
		}(i)
	}
	wait := main.begin("fleet.wait", 0)
	merged, werr := f.coord.Wait()
	main.end(wait)
	round.MakespanS = time.Since(start).Seconds()
	round.CPUS = cpuSeconds() - cpu0
	round.AllocMB = allocatedMB() - alloc0
	round.Merge = merged
	if interrupt {
		close(stop)
	}
	tail := time.Now()
	wg.Wait()
	round.ExitTailS = time.Since(tail).Seconds()
	f.srv.Close()
	if cerr := f.coord.Close(); werr == nil {
		werr = cerr
	}
	for _, e := range errs {
		if e != nil && !errors.Is(e, fleet.ErrInterrupted) && werr == nil {
			werr = e
		}
	}
	if werr != nil {
		os.RemoveAll(f.dir)
		return nil, fmt.Errorf("%s: %w", def.Name, werr)
	}
	return round, nil
}

// mergedRows lowers a merged fleet report to per-backend exact counts.
func mergedRows(m *campaign.Merge) []rowCounts {
	rows := make([]rowCounts, 0, len(m.Rows))
	for _, r := range m.Rows {
		rows = append(rows, countsOf(r.Stats))
	}
	sortRows(rows)
	return rows
}

// runFleet is the fleet workload's pass: Rounds complete sweeps, each
// through its own coordinator and corpus directory. wall_s is the sum of
// the makespans; setup_s the process start-up plus the sum of the per-round
// opens. Every round must merge to the same report.
func runFleet(spec passSpec) (*passResult, error) {
	def := spec.Def
	res := &passResult{SetupS: spec.sinceStart()}
	var lanes *tracer
	if spec.Mode == modeTraced {
		lanes = newTracer(1 + def.FleetWorkers)
	}
	rt0 := markRuntime()
	var rounds []*fleetRound
	defer func() {
		for _, r := range rounds {
			os.RemoveAll(r.Dir)
		}
	}()
	for i := 0; i < def.Rounds; i++ {
		round, err := runFleetRound(def, spec.OutDir, true, lanes)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, round)
		rows := mergedRows(round.Merge)
		if i == 0 {
			res.Rows = rows
		} else if d := diffRows(res.Rows, rows); d != "" {
			return nil, fmt.Errorf("%s: round %d merged to a different report: %s", def.Name, i+1, d)
		}
		res.SetupS += round.SetupS
		res.WallS += round.MakespanS
		res.CPUS += round.CPUS
		res.AllocMB += round.AllocMB
		for _, row := range rows {
			res.Pairs += row.Generated
			res.EnumStates += row.enumStates()
		}
	}
	rt1 := markRuntime()
	if spec.Mode == modeTraced {
		layers, err := fleetLayers(spec, lanes, rounds, res)
		if err != nil {
			return nil, err
		}
		rt1.since(rt0, res.Pairs, layers)
		res.Layers = layers
		if err := lanes.write(filepath.Join(spec.OutDir, "trace-"+def.Name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}
