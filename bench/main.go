// Command bench is the repository's benchmark: five campaign workloads,
// end-to-end metrics from untraced passes, per-layer metrics from one traced
// pass, and a verdict gate that pins every pass to bench/expected.json.
//
//	go run ./bench                      every workload, every metric by name
//	go run ./bench -json                the same as one JSON document
//	go run ./bench -agree               two full sets; non-zero unless they agree
//	go run ./bench -record-expected     rewrite expected.json from the reference engines
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                    one measured run, result as the last line
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// options are the command-line settings shared by every mode.
type options struct {
	ctx      context.Context // cancelled on SIGINT/SIGTERM; kills the running pass
	workload string
	seed     int64
	seconds  int
	trace    int
	reps     int
	scale    float64
	workers  int
	outDir   string
	expected string
	jsonOut  bool
	verbose  bool
}

func main() {
	// An interrupted or terminated benchmark takes its running pass down
	// with it: no child outlives the parent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := options{ctx: ctx}
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "selects residue class seed mod NumShards of each bounded space")
	fs.IntVar(&o.seconds, "seconds", 0, "measure one workload for about this long and print one result line (the driver's mode)")
	fs.IntVar(&o.trace, "trace", 0, "with -seconds: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	fs.IntVar(&o.reps, "reps", 3, "untraced repetitions per workload (the median is reported)")
	fs.Float64Var(&o.scale, "scale", 1, "shrink every workload to about this share of its size (smoke runs; numbers not comparable)")
	fs.IntVar(&o.workers, "workers", defaultWorkers(), "sweep goroutines and GOMAXPROCS of every pass")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for traces and scratch corpora")
	fs.StringVar(&o.expected, "expected", "bench/expected.json", "verdict-gate file")
	fs.BoolVar(&o.jsonOut, "json", false, "emit one JSON document instead of the table")
	fs.BoolVar(&o.verbose, "v", false, "print every pass as it completes (stderr)")
	child := fs.String("child", "", "internal: run one pass described by this JSON and print its result")
	benchJSON := fs.Bool("benchmark-json", false, "print BENCHMARK.json as the metric catalogue defines it")
	agree := fs.Bool("agree", false, "run two full sets back to back and fail unless they agree within the bounds")
	record := fs.Bool("record-expected", false, "rewrite the verdict-gate file from the reference engines (seeds 1 and 2, or -seed list via -record-seeds)")
	recordSeeds := fs.String("record-seeds", "1,2", "with -record-expected: comma-separated seeds to pin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *child != "" {
		return childMain(*child)
	}
	if *benchJSON {
		data, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if o.workers < 1 || o.workers > runtime.NumCPU() {
		return fmt.Errorf("-workers %d outside 1..%d (nproc): an oversubscribed sweep measures the scheduler, not the program",
			o.workers, runtime.NumCPU())
	}
	if o.scale <= 0 || o.scale > 1 {
		return fmt.Errorf("-scale %v outside (0, 1]", o.scale)
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps %d, want at least 1", o.reps)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case *record:
		return recordExpected(o, *recordSeeds)
	case o.seconds > 0:
		return driverRun(o)
	case *agree:
		return agreeRun(o)
	default:
		return fullRun(o)
	}
}

// selected returns the workloads this invocation covers, already scaled.
func (o options) selected() ([]workloadDef, error) {
	if o.workload != "" {
		d, err := lookupWorkload(o.workload)
		if err != nil {
			return nil, err
		}
		return []workloadDef{d.scaled(o.scale)}, nil
	}
	defs := workloadDefs()
	for i := range defs {
		defs[i] = defs[i].scaled(o.scale)
	}
	return defs, nil
}

// pass builds the child spec for one pass of def.
func (o options) pass(def workloadDef, mode passMode) passSpec {
	return passSpec{Def: def, Seed: o.seed, Workers: o.workers, Mode: mode, OutDir: o.outDir}
}
