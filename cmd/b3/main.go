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
//	b3 -profile seq-2 -no-prune             # cross-check: no state pruning
//	b3 -profile seq-2 -no-class-prune       # cross-check: construct every novel state
//	b3 -profile seq-2 -reorder 2 -no-commute-prune  # cross-check: no drop-set dedup
//	b3 -profile seq-2 -cpuprofile cpu.pprof -memprofile mem.pprof  # go tool pprof
//	b3 -profile seq-1 -fs all -reorder 1    # + bounded-reordering crash states
//	b3 -profile seq-1 -fs all -faults torn,corrupt,misdirect   # + fault axis
//	b3 -profile seq-1 -faults torn -sector 1024   # torn sweep at 1 KiB sectors
//	b3 -profile seq-3-data -prune-cap 65536 # bound the verdict cache
//	b3 -profile seq-2 -scratch-states       # cross-check: from-scratch states
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
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"b3"
	"b3/internal/blockdev"
	"b3/internal/crashmonkey"
	"b3/internal/workload"
)

func main() {
	var (
		findNew   = flag.Bool("find-new-bugs", false, "run the Table 5 campaign: find the new bugs at kernel 4.16")
		table4    = flag.Bool("table4", false, "count the Table 4 workload sets")
		reproduce = flag.Bool("reproduce", false, "reproduce the 24 known bugs on their reported kernels (appendix 9.1)")
		profile   = flag.String("profile", "", "run one campaign profile: seq-1 | seq-2 | seq-3-* (ACE file operations) | kv-seq1 | kv-seq2 (application-level KV store checked by the expected-state oracle)")
		fsName    = flag.String("fs", "logfs", "file system(s) under test: one name, a comma list, or \"all\"")
		sample    = flag.Int64("sample", 1, "test every n-th workload")
		maxW      = flag.Int64("max", 0, "stop generation after this many workloads")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		dedup     = flag.Bool("dedup-known", true, "suppress bug groups matching the known-bug database (§5.3)")
		noPrune   = flag.Bool("no-prune", false, "disable representative crash-state pruning (cross-check mode: every state checked)")
		noClass   = flag.Bool("no-class-prune", false, "disable enumeration-time class pruning (cross-check mode: every novel crash state is constructed before the cache is consulted)")
		noCommute = flag.Bool("no-commute-prune", false, "disable reorder commutativity pruning (cross-check mode: every drop-set constructed, including provably identical ones)")
		scratch   = flag.Bool("scratch-states", false, "construct every crash state from scratch instead of via the rolling replay cursor (cross-check mode)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run ends (go tool pprof)")
		verbose   = flag.Bool("v", false, "verbose: print per-FS block-IO metering (writes replayed, blocks read, bytes allocated)")
		pruneCap  = flag.Int("prune-cap", 0, "bound each prune-cache tier to this many entries (0 = default cap, negative = unbounded)")
		finalOnly = flag.Bool("final-only", false, "test only the final persistence point of each workload (the paper's §5.3 strategy)")
		reorder   = flag.Int("reorder", 0, "also sweep bounded-reordering crash states, dropping up to k in-flight epoch writes (0 = off; 1 = prefixes + drop-one)")
		faults    = flag.String("faults", "", "also sweep fault-injection crash states: comma list of torn, corrupt, misdirect (\"\" = off)")
		sector    = flag.Int("sector", 0, "torn-write sector size in bytes; must divide the 4096-byte block (0 = 512)")
		corpusDir = flag.String("corpus", "", "persist campaign progress to JSONL shards under this directory")
		resume    = flag.Bool("resume", false, "resume an interrupted campaign from the -corpus shard")
		shard     = flag.String("shard", "", "run one residue class i/n of the campaign (e.g. 2/5: workloads with seq%5==2); run all n with the same -corpus, then -merge")
		mergeDir  = flag.String("merge", "", "fold the completed campaign shards under this directory into one report (no re-running)")
		tier      = flag.String("tier", "", "apply a named campaign preset's defaults (quick | nightly | kv-quick | kv-nightly); explicit flags still win")
		serveAddr = flag.String("serve", "", "run the fleet coordinator on this listen address (e.g. :8080); needs -corpus and -profile/-tier")
		workerURL = flag.String("worker", "", "run a fleet worker pulling leases from this coordinator URL")
		workerID  = flag.String("worker-id", "", "stable worker identity in the fleet status table (default hostname-pid)")
		fleetN    = flag.Int("fleet-shards", 4, "initial residue classes the coordinator hands out as leases")
		leaseTTL  = flag.Duration("lease-ttl", 0, "fleet lease deadline; a lease missing heartbeats this long is expired and re-issued (0 = 10s)")
		heartbeat = flag.Duration("heartbeat", 0, "worker heartbeat interval (0 = a third of the granted lease TTL)")
	)
	flag.Parse()
	if *tier != "" {
		applyTier(*tier, profile, fsName, faults, sample, reorder, sector)
	}
	if *resume && *corpusDir == "" {
		fmt.Fprintln(os.Stderr, "b3: -resume requires -corpus DIR")
		os.Exit(2)
	}
	shardIdx, numShards, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "b3:", err)
		os.Exit(2)
	}
	faultModel, err := parseFaults(*faults, *sector)
	if err != nil {
		fmt.Fprintln(os.Stderr, "b3:", err)
		os.Exit(2)
	}
	startProfiles(*cpuProf, *memProf)

	switch {
	case *mergeDir != "":
		runMerge(*mergeDir, *dedup)
	case *serveAddr != "":
		runServe(serveRun{
			addr: *serveAddr, profile: *profile, fs: *fsName,
			sample: *sample, reorder: *reorder, faults: *faults, sector: *sector,
			corpusDir: *corpusDir, shards: *fleetN, leaseTTL: *leaseTTL, dedup: *dedup,
		})
	case *workerURL != "":
		runWorker(workerRun{url: *workerURL, id: *workerID, workers: *workers, heartbeat: *heartbeat})
	case *table4:
		runTable4(*maxW)
	case *findNew:
		runFindNewBugs(campaignOpts{
			workers: *workers, sample: *sample,
			noPrune: *noPrune, noClassPrune: *noClass, noCommutePrune: *noCommute,
			pruneCap: *pruneCap, finalOnly: *finalOnly,
			reorder: *reorder, faults: faultModel,
			corpusDir: *corpusDir, resume: *resume,
			scratch: *scratch, verbose: *verbose,
			shard: shardIdx, numShards: numShards,
		})
	case *reproduce:
		runReproduce()
	case *profile != "":
		runProfile(profileRun{
			campaignOpts: campaignOpts{
				workers: *workers, sample: *sample,
				noPrune: *noPrune, noClassPrune: *noClass, noCommutePrune: *noCommute,
				pruneCap: *pruneCap, finalOnly: *finalOnly,
				reorder: *reorder, faults: faultModel,
				corpusDir: *corpusDir, resume: *resume,
				scratch: *scratch, verbose: *verbose,
				shard: shardIdx, numShards: numShards,
			},
			profile: *profile, fs: *fsName, maxW: *maxW, dedup: *dedup,
		})
	default:
		fmt.Fprintln(os.Stderr, "b3: choose one of -find-new-bugs, -table4, -reproduce, -profile, -tier, -serve, -worker (see -h)")
		os.Exit(2)
	}
	profileFlush()
}

// profileFlush finalises -cpuprofile/-memprofile output. Every exit path
// calls it (fatal, exitOnBrokenReorder, the end of main); it is idempotent,
// and a no-op until startProfiles installs it.
var profileFlush = func() {}

// startProfiles starts the optional CPU profile and installs profileFlush
// to stop it and write the optional heap profile.
func startProfiles(cpu, mem string) {
	if cpu == "" && mem == "" {
		return
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	var once sync.Once
	profileFlush = func() {
		once.Do(func() {
			if cpu != "" {
				pprof.StopCPUProfile()
			}
			if mem == "" {
				return
			}
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "b3:", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not yet-uncollected garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "b3:", err)
			}
		})
	}
}

// runTable4 prints the Table 4 workload counts; a -max bound caps each.
func runTable4(maxW int64) {
	fmt.Println("Table 4: Workloads tested (counts from this implementation; see EXPERIMENTS.md)")
	fmt.Printf("%-18s %12s %10s\n", "sequence type", "# workloads", "gen time")
	var total int64
	start := time.Now()
	for _, p := range b3.Profiles() {
		bounds, err := b3.ProfileBounds(p)
		if err != nil {
			fatal(err)
		}
		pStart := time.Now()
		n, err := b3.CountWorkloads(bounds)
		if err != nil {
			fatal(err)
		}
		if maxW > 0 {
			n = min(n, maxW)
		}
		total += n
		fmt.Printf("%-18s %12d %9.1fs\n", p, n, time.Since(pStart).Seconds())
	}
	fmt.Printf("%-18s %12d %9.1fs\n", "Total", total, time.Since(start).Seconds())
}

// campaignOpts carries the shared campaign tuning flags.
type campaignOpts struct {
	workers                      int
	sample                       int64
	noPrune, finalOnly           bool
	noClassPrune, noCommutePrune bool
	pruneCap                     int
	reorder                      int
	faults                       b3.FaultModel
	corpusDir                    string
	resume                       bool
	scratch                      bool
	verbose                      bool
	shard, numShards             int
}

// parseFaults parses the -faults/-sector flag pair into a FaultModel
// ("" = fault axis off; -sector without -faults is refused as a likely typo).
func parseFaults(list string, sector int) (b3.FaultModel, error) {
	if strings.TrimSpace(list) == "" {
		if sector != 0 {
			return b3.FaultModel{}, fmt.Errorf("-sector %d has no effect without -faults", sector)
		}
		return b3.FaultModel{}, nil
	}
	kinds, err := b3.ParseFaultKinds(list)
	if err != nil {
		return b3.FaultModel{}, err
	}
	m := b3.FaultModel{Kinds: kinds, SectorSize: sector}
	if err := m.Validate(); err != nil {
		return b3.FaultModel{}, err
	}
	return m, nil
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

// runMerge folds the completed campaign shards under dir into one report.
func runMerge(dir string, dedup bool) {
	m, err := b3.MergeCampaignCorpus(dir, dedup)
	if err != nil {
		fatal(err)
	}
	fmt.Print(m.Summary())
	var rows []*b3.CampaignStats
	for _, r := range m.Rows {
		rows = append(rows, r.Stats)
	}
	exitOnBrokenReorder(rows)
}

// progressPrinter returns an OnProgress callback printing a live progress
// line to stderr: workload/state/replay rates from differenced snapshots,
// plus an ETA once the background space count (total) lands. rows is the
// number of matrix rows (snapshots sum across them); divisor scales the
// enumeration down to one row's tested share (shards × sampling).
func progressPrinter(total *atomic.Int64, rows, divisor int64) func(b3.CampaignProgress) {
	var last b3.CampaignProgress
	return func(p b3.CampaignProgress) {
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
		fmt.Fprintln(os.Stderr, line)
		last = p
	}
}

// printBlockIO emits the -v block-IO metering lines for each campaign row.
func printBlockIO(verbose bool, rows ...*b3.CampaignStats) {
	if !verbose {
		return
	}
	for _, s := range rows {
		fmt.Println(s.BlockIOSummary())
	}
}

// resolveFS expands the -fs flag: one name, a comma list, or "all".
func resolveFS(arg string) ([]b3.FileSystem, error) {
	names := strings.Split(arg, ",")
	if strings.TrimSpace(arg) == "all" {
		names = b3.FSNames()
	}
	var out []b3.FileSystem
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fs, err := b3.NewFS(name, b3.CampaignConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, fs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fs %q selects no file system", arg)
	}
	return out, nil
}

func runFindNewBugs(o campaignOpts) {
	fmt.Println("=== Table 5 campaign: seq-1 + seq-2 on every file system at kernel 4.16")
	fmt.Println("(previously reported bugs patched; undiscovered bugs live)")
	found := map[string]bool{}
	var allStats []*b3.CampaignStats
	interrupt := installInterrupt()
	for _, fsName := range b3.FSNames() {
		fs, err := b3.NewFS(fsName, b3.CampaignConfig())
		if err != nil {
			fatal(err)
		}
		for _, p := range []b3.ProfileName{b3.Seq1, b3.Seq2} {
			stats, err := b3.RunCampaign(b3.Campaign{
				FS: fs, Profile: p, Workers: o.workers,
				SampleEvery: o.sample, DedupKnown: true,
				NoPrune: o.noPrune, NoClassPrune: o.noClassPrune, NoCommutePrune: o.noCommutePrune,
				PruneCap: o.pruneCap, FinalOnly: o.finalOnly,
				Reorder: o.reorder, Faults: o.faults, ScratchStates: o.scratch,
				Shard: o.shard, NumShards: o.numShards,
				// Each (fs, profile) pair gets its own corpus shard.
				CorpusDir: o.corpusDir, Resume: o.resume,
				Interrupt: interrupt,
			})
			if errors.Is(err, b3.ErrCampaignInterrupted) {
				fmt.Printf("\n--- %s %s (interrupted) ---\n%s\n", fsName, p, stats.Summary())
				exitInterrupted(o.corpusDir)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\n--- %s %s ---\n%s\n", fsName, p, stats.Summary())
			printBlockIO(o.verbose, stats)
			attributeBugs(fs, stats, found)
			allStats = append(allStats, stats)
		}
	}
	fmt.Println()
	fmt.Print(b3.Table5(found))
	exitOnBrokenReorder(allStats)
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
func exitOnBrokenReorder(rows []*b3.CampaignStats) {
	broken := false
	for _, s := range rows {
		if s.ReorderBroken > 0 {
			broken = true
			fmt.Fprintf(os.Stderr, "b3: %s: %d reorder state(s) neither mounted nor repaired\n",
				s.FSName, s.ReorderBroken)
		}
		if n := s.FaultBroken(); n > 0 {
			fmt.Fprintf(os.Stderr, "b3: %s: %d fault state(s) neither mounted nor repaired (finding, not an error)\n",
				s.FSName, n)
		}
	}
	if broken {
		profileFlush()
		os.Exit(1)
	}
}

// attributeBugs marks which Table 5 mechanisms the campaign's groups
// exercise, by re-running each group exemplar with single mechanisms.
func attributeBugs(fs b3.FileSystem, stats *b3.CampaignStats, found map[string]bool) {
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

func runReproduce() {
	fmt.Println("=== Reproducing the 24 studied bugs on their reported kernels (appendix 9.1)")
	ok, fail := 0, 0
	for _, entry := range b3.StudyCorpus() {
		if entry.New || entry.OutOfBounds {
			continue
		}
		w, err := b3.ParseWorkload(entry.ID, entry.Text)
		if err != nil {
			fatal(err)
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
				fatal(err)
			}
			res, err := b3.TestWorkload(fs, w)
			if err != nil {
				fatal(err)
			}
			status := "NOT REPRODUCED"
			if res.Buggy() {
				status = "reproduced"
				ok++
			} else {
				fail++
			}
			fmt.Printf("%-4s on %-10s @ kernel %-6s: %-14s (%s)\n",
				entry.ID, variant.FS, reported, status, entry.Title)
		}
	}
	for _, entry := range b3.StudyCorpus() {
		if entry.OutOfBounds {
			fmt.Printf("%-4s out of B3's bounds (%s)\n", entry.ID, entry.Title)
		}
	}
	fmt.Printf("\n%d bug reports reproduced, %d failed; 2 of 26 studied bugs out of bounds (as in the paper)\n", ok, fail)
	if fail > 0 {
		profileFlush()
		os.Exit(1)
	}
}

type profileRun struct {
	campaignOpts
	profile, fs string
	maxW        int64
	dedup       bool
}

func runProfile(r profileRun) {
	fss, err := resolveFS(r.fs)
	if err != nil {
		fatal(err)
	}
	c := b3.Campaign{
		Profile: b3.ProfileName(r.profile), Workers: r.workers,
		SampleEvery: r.sample, MaxWorkloads: r.maxW, DedupKnown: r.dedup,
		NoPrune: r.noPrune, NoClassPrune: r.noClassPrune, NoCommutePrune: r.noCommutePrune,
		PruneCap: r.pruneCap, FinalOnly: r.finalOnly,
		Reorder: r.reorder, Faults: r.faults, ScratchStates: r.scratch,
		Shard: r.shard, NumShards: r.numShards,
		CorpusDir: r.corpusDir, Resume: r.resume,
		Interrupt: installInterrupt(),
	}
	if r.verbose {
		// Live progress while the sweep runs. The ETA needs the space size;
		// counting builds no workload but still simulates every assignment
		// (about a second for a seq-3 space), so it runs in the background
		// and the ETA appears once it lands. A -max bound caps the
		// enumeration, so it caps the ETA total too — and is known upfront.
		var total atomic.Int64
		if r.maxW > 0 {
			total.Store(r.maxW)
		}
		go func() {
			if b3.IsKVProfile(r.profile) {
				// KV spaces count in closed form; the per-workload
				// state-space probe is a file-level tool, so skip it.
				if n, err := b3.CountKVWorkloads(r.profile); err == nil {
					if r.maxW <= 0 || n < r.maxW {
						total.Store(n)
					}
				}
				return
			}
			bounds, err := b3.ProfileBounds(c.Profile)
			if err != nil {
				return
			}
			stateSpaceNotice(c, fss[0], bounds)
			if n, err := b3.CountWorkloads(bounds); err == nil {
				if r.maxW <= 0 || n < r.maxW {
					total.Store(n)
				}
			}
		}()
		divisor := int64(1)
		if r.numShards > 1 {
			divisor *= int64(r.numShards)
		}
		if r.sample > 1 {
			divisor *= r.sample
		}
		c.OnProgress = progressPrinter(&total, int64(len(fss)), divisor)
	}
	var rows []*b3.CampaignStats
	if len(fss) == 1 {
		c.FS = fss[0]
		stats, err := b3.RunCampaign(c)
		if errors.Is(err, b3.ErrCampaignInterrupted) {
			fmt.Print(stats.Summary())
			exitInterrupted(r.corpusDir)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(stats.Summary())
		rows = append(rows, stats)
	} else {
		matrix, err := b3.RunCampaignMatrix(c, fss)
		if errors.Is(err, b3.ErrCampaignInterrupted) {
			fmt.Print(matrix.Summary())
			exitInterrupted(r.corpusDir)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(matrix.Summary())
		rows = matrix.PerFS
	}
	printBlockIO(r.verbose, rows...)
	exitOnBrokenReorder(rows)
}

// stateSpaceNotice sizes the per-workload crash-state spaces behind a -v
// ETA: it profiles the first workload of the sweep and prints the exact
// ReorderStateCount/FaultStateCount for its recorded log — the multiplier
// between the workload-based ETA and the states/s progress counter. A
// count that overflows int64 is surfaced as a one-line notice instead of
// being dropped: a space too large to count is exactly the one the user
// needs to hear about before committing a workstation to it.
func stateSpaceNotice(c b3.Campaign, fs b3.FileSystem, bounds b3.Bounds) {
	if c.Reorder <= 0 && len(c.Faults.Kinds) == 0 {
		return
	}
	var text string
	if _, err := b3.GenerateWorkloads(bounds, func(w *b3.Workload) bool {
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
	if c.Reorder > 0 {
		if n, err := blockdev.ReorderStateCount(log, c.Reorder); err != nil {
			fmt.Fprintf(os.Stderr, "b3: reorder space at k=%d too large to count: the sweep streams it anyway, but the ETA tracks workloads only\n", c.Reorder)
		} else {
			fmt.Fprintf(os.Stderr, "b3: reorder sweep at k=%d: %d crash states for the first workload\n", c.Reorder, n)
		}
	}
	for _, kind := range c.Faults.Kinds {
		if n, err := blockdev.FaultStateCount(log, kind, c.Faults.SectorSize); err != nil {
			fmt.Fprintf(os.Stderr, "b3: %s fault space too large to count: the sweep streams it anyway, but the ETA tracks workloads only\n", kind)
		} else {
			fmt.Fprintf(os.Stderr, "b3: %s fault sweep: %d crash states for the first workload\n", kind, n)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "b3:", err)
	profileFlush()
	os.Exit(1)
}
