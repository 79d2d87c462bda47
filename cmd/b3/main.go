// Command b3 runs full bounded black-box crash-testing campaigns and
// regenerates the paper's evaluation tables.
//
//	b3 -find-new-bugs                       # Table 5: campaign at 4.16
//	b3 -table4                              # Table 4 workload counts
//	b3 -profile seq-2 -fs logfs -sample 10  # sampled seq-2 sweep
//	b3 -profile seq-2 -fs all               # matrix: every backend at once
//	b3 -profile seq-2 -fs logfs,journalfs   # matrix: a chosen subset
//	b3 -profile seq-2 -corpus runs/         # resumable: progress on disk
//	b3 -profile seq-2 -corpus runs/ -resume # continue a killed campaign
//	b3 -profile seq-3-metadata -shard 2/5 -corpus runs/   # residue class 2 of 5
//	b3 -merge runs/                         # fold completed shards: one report
//	b3 -profile seq-3-metadata -shard 0/5 -v   # + live progress line with ETA
//	b3 -profile seq-2 -cpuprofile cpu.pprof -memprofile mem.pprof  # go tool pprof
//	b3 -profile seq-1 -fs all -reorder 1    # + bounded-reordering crash states
//	b3 -profile seq-1 -fs all -faults torn,corrupt,misdirect   # + fault axis
//	b3 -profile seq-1 -faults torn -sector 1024   # torn sweep at 1 KiB sectors
//	b3 -profile seq-3-data -prune-cap 65536 # bound the verdict cache
//	b3 -profile seq-1 -fs all -v            # + block-IO metering per row
//	b3 -profile kv-seq1 -fs all -reorder 1  # application-level KV store + oracle
//	b3 -profile kv-seq2 -fs all -faults torn,corrupt  # deeper KV space + fault axis
//	b3 -tier quick                          # named preset: seq-1, all FS, reorder 1
//	b3 -serve :8080 -tier quick -corpus runs/   # fleet coordinator: leases + ledger
//	b3 -worker http://host:8080             # fleet worker (shares the corpus dir)
//	b3 -reproduce                           # appendix: 24 known bugs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"b3"
	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/campaign"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/kvace"
	"b3/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one parsed command line plus the streams it reports to.
type cli struct {
	stdout, stderr io.Writer

	// spec holds -profile, -fs, -sample, -reorder, -faults, -sector and
	// -corpus, laid over the -tier preset's Spec.
	spec campaign.Spec
	// knobs holds the campaign flags a Spec does not carry: -workers,
	// -max, -prune-cap, -final-only and -resume.
	knobs            campaign.Config
	shard, numShards int               // -shard i/n
	given            map[string]string // the flags on the command line, by name

	findNew, table4, reproduce, dedup, verbose bool
	cpuProf, memProf, mergeDir, tier           string
	serveAddr, workerURL, workerID             string
	fleetShards                                int
	leaseTTL, heartbeat                        time.Duration
}

// run is the whole command: it parses args, runs the chosen mode, and
// returns the process exit status (0 ok, 1 failure or broken reorder
// state, 2 usage, 130 interrupted). stderr must accept concurrent writes.
func run(args []string, stdout, stderr io.Writer) int {
	c, code := parseArgs(args, stdout, stderr)
	if c == nil {
		return code
	}
	stop, err := startProfiles(c.cpuProf, c.memProf, stderr)
	if err != nil {
		return c.fail(err)
	}
	defer stop()
	if c.verbose {
		// The memo's counts depend on the schedule, so they go to stderr,
		// beside the live progress, not into the report.
		defer func() { fmt.Fprintln(c.stderr, diskfmt.ReadMemoStats()) }()
	}

	switch {
	case c.mergeDir != "":
		return c.runMerge()
	case c.serveAddr != "":
		return c.runServe()
	case c.workerURL != "":
		return c.runWorker()
	case c.table4:
		return c.runTable4()
	case c.findNew:
		return c.runFindNewBugs()
	case c.reproduce:
		return c.runReproduce()
	case c.spec.Profile != "":
		return c.runProfile()
	}
	return c.usage(errors.New("choose one of -find-new-bugs, -table4, -reproduce, -profile, -tier, -serve, -worker (see -h)"))
}

// parseArgs parses the command line. On failure it has reported why and
// returns a nil cli with the exit status.
func parseArgs(args []string, stdout, stderr io.Writer) (*cli, int) {
	c := &cli{stdout: stdout, stderr: stderr, spec: campaign.Spec{FS: []string{"logfs"}, SampleEvery: 1}}
	f := flag.NewFlagSet("b3", flag.ContinueOnError)
	f.SetOutput(stderr)
	f.BoolVar(&c.findNew, "find-new-bugs", false, "run the Table 5 campaign: find the new bugs at kernel 4.16")
	f.BoolVar(&c.table4, "table4", false, "count the Table 4 workload sets")
	f.BoolVar(&c.reproduce, "reproduce", false, "reproduce the 24 known bugs on their reported kernels (appendix 9.1)")
	f.StringVar((*string)(&c.spec.Profile), "profile", "", "run one campaign profile: seq-1 | seq-2 | seq-3-* (ACE file operations) | kv-seq1 | kv-seq2 (application-level KV store checked by the expected-state oracle)")
	f.Var((*nameList)(&c.spec.FS), "fs", "file system(s) under test: one name, a comma `list`, or \"all\"")
	f.Int64Var(&c.spec.SampleEvery, "sample", 1, "test every n-th workload")
	f.Int64Var(&c.knobs.MaxWorkloads, "max", 0, "stop generation after this many workloads")
	f.IntVar(&c.knobs.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	f.BoolVar(&c.dedup, "dedup-known", true, "suppress bug groups matching the known-bug database (§5.3)")
	f.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	f.StringVar(&c.memProf, "memprofile", "", "write a heap profile to this file when the run ends (go tool pprof)")
	f.BoolVar(&c.verbose, "v", false, "verbose: print per-FS block-IO metering (writes replayed, blocks read, bytes allocated) and the verified-payload memo's counts")
	f.IntVar(&c.knobs.PruneCap, "prune-cap", 0, "bound each prune-cache tier to this many entries (0 = default cap, negative = unbounded)")
	f.BoolVar(&c.knobs.FinalOnly, "final-only", false, "test only the final persistence point of each workload (the paper's §5.3 strategy)")
	f.IntVar(&c.spec.Reorder, "reorder", 0, "also sweep bounded-reordering crash states, dropping up to k in-flight epoch writes (0 = off; 1 = prefixes + drop-one)")
	f.StringVar(&c.spec.Faults, "faults", "", "also sweep fault-injection crash states: comma list of torn, corrupt, misdirect (\"\" = off)")
	f.IntVar(&c.spec.Sector, "sector", 0, "torn-write sector size in bytes; must divide the 4096-byte block (0 = 512)")
	f.StringVar(&c.spec.CorpusDir, "corpus", "", "persist campaign progress to JSONL shards under this directory")
	f.BoolVar(&c.knobs.Resume, "resume", false, "resume an interrupted campaign from the -corpus shard")
	shard := f.String("shard", "", "run one residue class i/n of the campaign (e.g. 2/5: workloads with seq%5==2); run all n with the same -corpus, then -merge")
	f.StringVar(&c.mergeDir, "merge", "", "fold the completed campaign shards under this directory into one report (no re-running)")
	f.StringVar(&c.tier, "tier", "", "apply a named campaign preset's defaults (quick | nightly | kv-quick | kv-nightly); explicit flags still win")
	f.StringVar(&c.serveAddr, "serve", "", "run the fleet coordinator on this listen address (e.g. :8080); needs -corpus and -profile/-tier")
	f.StringVar(&c.workerURL, "worker", "", "run a fleet worker pulling leases from this coordinator URL")
	f.StringVar(&c.workerID, "worker-id", "", "stable worker identity in the fleet status table (default hostname-pid)")
	f.IntVar(&c.fleetShards, "fleet-shards", 4, "initial residue classes the coordinator hands out as leases")
	f.DurationVar(&c.leaseTTL, "lease-ttl", 0, "fleet lease deadline; a lease missing heartbeats this long is expired and re-issued (0 = 10s)")
	f.DurationVar(&c.heartbeat, "heartbeat", 0, "worker heartbeat interval (0 = a third of the granted lease TTL)")
	if err := f.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil, 0
	} else if err != nil {
		return nil, 2
	}
	c.given = map[string]string{}
	f.Visit(func(fl *flag.Flag) { c.given[fl.Name] = fl.Value.String() })
	if c.tier != "" {
		if err := c.applyTier(f); err != nil {
			return nil, c.usage(err)
		}
	}
	if c.knobs.Resume && c.spec.CorpusDir == "" {
		return nil, c.usage(errors.New("-resume requires -corpus DIR"))
	}
	var err error
	if c.shard, c.numShards, err = parseShard(*shard); err != nil {
		return nil, c.usage(err)
	}
	return c, 0
}

// applyTier lays the named tier's Spec under the command line: every flag
// the user did not set takes the tier's value, and explicit flags win.
func (c *cli) applyTier(f *flag.FlagSet) error {
	t, err := campaign.LookupTier(c.tier)
	if err != nil {
		return err
	}
	c.spec = t.Spec
	c.spec.SampleEvery = max(c.spec.SampleEvery, 1) // an unsampled tier keeps -sample's default
	for name, value := range c.given {
		if err := f.Set(name, value); err != nil {
			return err
		}
	}
	return nil
}

// nameList is the -fs flag: one name, a comma list, or "all".
type nameList []string

func (l *nameList) String() string { return strings.Join(*l, ",") }

func (l *nameList) Set(arg string) error {
	*l = nil
	for _, name := range strings.Split(arg, ",") {
		if name = strings.TrimSpace(name); name != "" {
			*l = append(*l, name)
		}
	}
	if len(*l) == 0 {
		return errors.New("selects no file system")
	}
	return nil
}

// parseShard parses the -shard flag: "i/n" with 0 <= i < n ("" = unsharded).
func parseShard(arg string) (shard, numShards int, err error) {
	if arg == "" {
		return 0, 0, nil
	}
	before, after, ok := strings.Cut(arg, "/")
	if ok {
		shard, err = strconv.Atoi(before)
		if err == nil {
			numShards, err = strconv.Atoi(after)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/n, e.g. 2/5", arg)
	}
	if numShards < 1 || shard < 0 || shard >= numShards {
		return 0, 0, fmt.Errorf("-shard %q: shard index must satisfy 0 <= i < n", arg)
	}
	return shard, numShards, nil
}

// lower lowers spec for the -shard residue class and adds the campaign
// flags a Spec does not carry.
func (c *cli) lower(spec campaign.Spec) (campaign.Config, []filesys.FileSystem, error) {
	cfg, fss, err := spec.Lower(c.shard, c.numShards)
	k := &c.knobs
	cfg.Workers, cfg.MaxWorkloads, cfg.PruneCap = k.Workers, k.MaxWorkloads, k.PruneCap
	cfg.FinalOnly, cfg.Resume = k.FinalOnly, k.Resume
	return cfg, fss, err
}

// fail reports a failed run: exit status 1.
func (c *cli) fail(err error) int {
	fmt.Fprintln(c.stderr, "b3:", err)
	return 1
}

// usage reports a command line that cannot run: exit status 2.
func (c *cli) usage(err error) int {
	fmt.Fprintln(c.stderr, "b3:", err)
	return 2
}

// startProfiles starts the optional CPU profile and returns the function
// that stops it and writes the optional heap profile; run defers it, so
// every exit path flushes both.
func startProfiles(cpu, mem string, stderr io.Writer) (stop func(), err error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(stderr, "b3:", err)
			return
		}
		defer f.Close()
		runtime.GC() // profile live objects, not yet-uncollected garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "b3:", err)
		}
	}, nil
}

// runTable4 prints the Table 4 workload counts; a -max bound caps each.
func (c *cli) runTable4() int {
	fmt.Fprintln(c.stdout, "Table 4: Workloads tested (counts from this implementation; see EXPERIMENTS.md)")
	fmt.Fprintf(c.stdout, "%-18s %12s %10s\n", "sequence type", "# workloads", "gen time")
	var total int64
	start := time.Now()
	for _, p := range ace.Profiles() {
		bounds, _, err := campaign.ProfileSpace(p)
		if err != nil {
			return c.fail(err)
		}
		pStart := time.Now()
		n, err := ace.New(bounds).Count()
		if err != nil {
			return c.fail(err)
		}
		if c.knobs.MaxWorkloads > 0 {
			n = min(n, c.knobs.MaxWorkloads)
		}
		total += n
		fmt.Fprintf(c.stdout, "%-18s %12d %9.1fs\n", p, n, time.Since(pStart).Seconds())
	}
	fmt.Fprintf(c.stdout, "%-18s %12d %9.1fs\n", "Total", total, time.Since(start).Seconds())
	return 0
}

// runMerge folds the completed campaign shards under -merge into one report.
func (c *cli) runMerge() int {
	m, err := b3.MergeCampaignCorpus(c.mergeDir, c.dedup)
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprint(c.stdout, m.Summary())
	return c.exitOnBrokenReorder(mergedStats(m))
}

// mergedStats lists a merged report's per-row statistics.
func mergedStats(m *campaign.Merge) []*campaign.Stats {
	var rows []*campaign.Stats
	for _, r := range m.Rows {
		rows = append(rows, r.Stats)
	}
	return rows
}

// progressPrinter returns an OnProgress callback printing a live progress
// line to stderr: workload/state/replay rates from differenced snapshots,
// plus an ETA once the background space count (total) lands. rows is the
// number of matrix rows (snapshots sum across them); divisor scales the
// enumeration down to one row's tested share (shards × sampling).
func (c *cli) progressPrinter(total *atomic.Int64, rows, divisor int64) func(campaign.Progress) {
	var last campaign.Progress
	return func(p campaign.Progress) {
		dt := (p.Elapsed - last.Elapsed).Seconds()
		if dt <= 0 {
			return
		}
		line := fmt.Sprintf("progress: %d workloads (%.0f/s), %d states (%.0f/s), %d writes replayed (%.0f/s)",
			p.Workloads, float64(p.Workloads-last.Workloads)/dt,
			p.States, float64(p.States-last.States)/dt,
			p.ReplayedWrites, float64(p.ReplayedWrites-last.ReplayedWrites)/dt)
		if t := total.Load(); t > 0 && p.Workloads > last.Workloads {
			expected := t * rows / divisor
			if remaining := expected - p.Workloads; remaining > 0 {
				rate := float64(p.Workloads-last.Workloads) / dt
				eta := time.Duration(float64(remaining) / rate * float64(time.Second))
				line += fmt.Sprintf(", ~%d/%d done, eta %s", p.Workloads, expected, eta.Round(time.Second))
			}
		}
		fmt.Fprintln(c.stderr, line)
		last = p
	}
}

// printBlockIO emits the -v block-IO metering lines for each campaign row.
func (c *cli) printBlockIO(rows ...*campaign.Stats) {
	if !c.verbose {
		return
	}
	for _, s := range rows {
		fmt.Fprintln(c.stdout, s.BlockIOSummary())
	}
}

func (c *cli) runFindNewBugs() int {
	fmt.Fprintln(c.stdout, "=== Table 5 campaign: seq-1 + seq-2 on every file system at kernel 4.16")
	fmt.Fprintln(c.stdout, "(previously reported bugs patched; undiscovered bugs live)")
	interrupt := installInterrupt(c.stderr)
	var cfgs []campaign.Config
	var fss []filesys.FileSystem
	for _, p := range []ace.ProfileName{ace.ProfileSeq1, ace.ProfileSeq2} {
		spec := c.spec
		spec.Profile, spec.FS = p, []string{"all"}
		cfg, all, err := c.lower(spec)
		if err != nil {
			return c.usage(err)
		}
		// Each (fs, profile) pair gets its own corpus shard.
		cfg.KnownDBFor, cfg.Interrupt = b3.KnownBugDB, interrupt
		cfgs, fss = append(cfgs, cfg), all
	}
	found := map[string]bool{}
	var allStats []*campaign.Stats
	for _, fs := range fss {
		for _, cfg := range cfgs {
			cfg.FS = fs
			stats, err := campaign.Run(cfg)
			if errors.Is(err, campaign.ErrInterrupted) {
				fmt.Fprintf(c.stdout, "\n--- %s %s (interrupted) ---\n%s\n", fs.Name(), cfg.ProfileLabel, stats.Summary())
				return c.interrupted()
			}
			if err != nil {
				return c.fail(err)
			}
			fmt.Fprintf(c.stdout, "\n--- %s %s ---\n%s\n", fs.Name(), cfg.ProfileLabel, stats.Summary())
			c.printBlockIO(stats)
			attributeBugs(fs, stats, found)
			allStats = append(allStats, stats)
		}
	}
	fmt.Fprintln(c.stdout)
	fmt.Fprint(c.stdout, b3.Table5(found))
	return c.exitOnBrokenReorder(allStats)
}

// exitOnBrokenReorder enforces the reorder contract on every campaign mode:
// bug findings are the product and exit 0, but a broken reorder state means
// the core-mechanism assumption (every bounded-reordering crash state
// mounts or is fsck-repairable) failed, which scripts and CI must see.
//
// Fault-injection broken states deliberately do NOT exit 1: a disk that
// tears, corrupts, or misdirects a write is outside the guarantees most
// designs make, so a broken fault state is a finding about the design's
// fault envelope (reported in the summary and per-kind counters), not a
// harness-soundness failure.
func (c *cli) exitOnBrokenReorder(rows []*campaign.Stats) int {
	code := 0
	for _, s := range rows {
		if s.ReorderBroken > 0 {
			code = 1
			fmt.Fprintf(c.stderr, "b3: %s: %d reorder state(s) neither mounted nor repaired\n",
				s.FSName, s.ReorderBroken)
		}
		if n := s.FaultBroken(); n > 0 {
			fmt.Fprintf(c.stderr, "b3: %s: %d fault state(s) neither mounted nor repaired (finding, not an error)\n",
				s.FSName, n)
		}
	}
	return code
}

// attributeBugs marks which Table 5 mechanisms the campaign's groups
// exercise, by re-running each group exemplar with single mechanisms.
func attributeBugs(fs b3.FileSystem, stats *campaign.Stats, found map[string]bool) {
	for _, g := range stats.FreshGroups {
		w, err := workload.Parse("exemplar", g.Exemplar.Workload)
		if err != nil {
			continue
		}
		for _, bug := range b3.NewBugs() {
			if bug.FS != fs.Name() || found[bug.ID] {
				continue
			}
			single, err := b3.NewFS(fs.Name(), b3.FSConfig{Bugs: map[string]bool{bug.ID: true}})
			if err != nil {
				continue
			}
			res, err := (&crashmonkey.Monkey{FS: single}).Run(w)
			if err == nil && res.Buggy() {
				found[bug.ID] = true
			}
		}
	}
}

func (c *cli) runReproduce() int {
	fmt.Fprintln(c.stdout, "=== Reproducing the 24 studied bugs on their reported kernels (appendix 9.1)")
	ok, fail := 0, 0
	for _, entry := range b3.StudyCorpus() {
		if entry.New || entry.OutOfBounds {
			continue
		}
		w, err := b3.ParseWorkload(entry.ID, entry.Text)
		if err != nil {
			return c.fail(err)
		}
		for _, variant := range entry.Variants {
			var reported b3.Version
			for _, id := range variant.Bugs {
				for _, bug := range b3.AllBugs() {
					if bug.ID == id {
						reported = bug.Reported
					}
				}
			}
			cfg := b3.FSConfig{Version: reported}
			fs, err := b3.NewFS(variant.FS, cfg)
			if err != nil {
				return c.fail(err)
			}
			res, err := b3.TestWorkload(fs, w)
			if err != nil {
				return c.fail(err)
			}
			status := "NOT REPRODUCED"
			if res.Buggy() {
				status = "reproduced"
				ok++
			} else {
				fail++
			}
			fmt.Fprintf(c.stdout, "%-4s on %-10s @ kernel %-6s: %-14s (%s)\n",
				entry.ID, variant.FS, reported, status, entry.Title)
		}
	}
	for _, entry := range b3.StudyCorpus() {
		if entry.OutOfBounds {
			fmt.Fprintf(c.stdout, "%-4s out of B3's bounds (%s)\n", entry.ID, entry.Title)
		}
	}
	fmt.Fprintf(c.stdout, "\n%d bug reports reproduced, %d failed; 2 of 26 studied bugs out of bounds (as in the paper)\n", ok, fail)
	if fail > 0 {
		return 1
	}
	return 0
}

func (c *cli) runProfile() int {
	cfg, fss, err := c.lower(c.spec)
	if err != nil {
		return c.usage(err)
	}
	cfg.Interrupt = installInterrupt(c.stderr)
	if c.dedup {
		cfg.KnownDBFor = b3.KnownBugDB
	}
	if c.verbose {
		// Live progress while the sweep runs. The ETA needs the space size;
		// counting builds no workload but still simulates every assignment
		// (about a second for a seq-3 space), so it runs in the background
		// and the ETA appears once it lands. A -max bound caps the
		// enumeration, so it caps the ETA total too — and is known upfront.
		var total atomic.Int64
		if cfg.MaxWorkloads > 0 {
			total.Store(cfg.MaxWorkloads)
		}
		go func(cfg campaign.Config) {
			var n int64
			var err error
			if cfg.KV != nil {
				// KV spaces count in closed form; the per-workload
				// state-space probe is a file-level tool, so skip it.
				n, err = kvace.New(*cfg.KV).Count()
			} else {
				c.stateSpaceNotice(cfg, fss[0])
				n, err = ace.New(cfg.Bounds).Count()
			}
			if err == nil && (cfg.MaxWorkloads <= 0 || n < cfg.MaxWorkloads) {
				total.Store(n)
			}
		}(cfg)
		divisor := max(int64(cfg.NumShards), 1) * max(cfg.SampleEvery, 1)
		cfg.OnProgress = c.progressPrinter(&total, int64(len(fss)), divisor)
	}
	matrix, err := campaign.RunMatrix(cfg, fss)
	if err != nil && !errors.Is(err, campaign.ErrInterrupted) {
		return c.fail(err)
	}
	if len(fss) == 1 {
		fmt.Fprint(c.stdout, matrix.PerFS[0].Summary())
	} else {
		fmt.Fprint(c.stdout, matrix.Summary())
	}
	if err != nil {
		return c.interrupted()
	}
	c.printBlockIO(matrix.PerFS...)
	return c.exitOnBrokenReorder(matrix.PerFS)
}

// stateSpaceNotice sizes the per-workload crash-state spaces behind a -v
// ETA: it profiles the first workload of the sweep and prints the exact
// ReorderStateCount/FaultStateCount for its recorded log — the multiplier
// between the workload-based ETA and the states/s progress counter. A
// count that overflows int64 is surfaced as a one-line notice instead of
// being dropped: a space too large to count is exactly the one the user
// needs to hear about before committing a workstation to it.
func (c *cli) stateSpaceNotice(cfg campaign.Config, fs filesys.FileSystem) {
	if cfg.Reorder <= 0 && len(cfg.Faults.Kinds) == 0 {
		return
	}
	var text string
	if _, err := ace.New(cfg.Bounds).Generate(func(w *workload.Workload) bool {
		text = w.String()
		return false
	}); err != nil || text == "" {
		return
	}
	w, err := workload.Parse("eta-probe", text)
	if err != nil {
		return
	}
	p, err := (&crashmonkey.Monkey{FS: fs}).ProfileWorkload(w)
	if err != nil {
		return
	}
	defer p.Release()
	log := p.Log()
	if cfg.Reorder > 0 {
		if n, err := blockdev.ReorderStateCount(log, cfg.Reorder); err != nil {
			fmt.Fprintf(c.stderr, "b3: reorder space at k=%d too large to count: the sweep streams it anyway, but the ETA tracks workloads only\n", cfg.Reorder)
		} else {
			fmt.Fprintf(c.stderr, "b3: reorder sweep at k=%d: %d crash states for the first workload\n", cfg.Reorder, n)
		}
	}
	for _, kind := range cfg.Faults.Kinds {
		if n, err := blockdev.FaultStateCount(log, kind, cfg.Faults.SectorSize); err != nil {
			fmt.Fprintf(c.stderr, "b3: %s fault space too large to count: the sweep streams it anyway, but the ETA tracks workloads only\n", kind)
		} else {
			fmt.Fprintf(c.stderr, "b3: %s fault sweep: %d crash states for the first workload\n", kind, n)
		}
	}
}
