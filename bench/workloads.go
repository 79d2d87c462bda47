package main

import (
	"fmt"
	"math"
	"runtime"

	"b3"
	"b3/internal/ace"
)

// workloadDef freezes the parameters of one benchmark workload. The values
// here are the ones BENCHMARK.json and README.md name; a change to any of
// them is a change to the benchmark and re-bases every recorded number.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Space names a bounded ACE space built by spaceBounds ("S2small",
	// "S2mid"); empty when Profile or Tier selects the inputs.
	Space string `json:"space,omitempty"`
	// Profile is a named profile ("kv-seq3") instead of a Space.
	Profile string `json:"profile,omitempty"`
	// SpaceSize is the number of workloads the space enumerates. Every pass
	// at scale 1 must report exactly this many generated per backend, so a
	// change to a generator shows as a failed run, not as a faster one.
	SpaceSize int64 `json:"space_size"`
	// Tier, when set, makes this the fleet workload: Rounds sweeps of
	// fleet.TierSpec(Tier, dir, FleetShards) by FleetWorkers in-process
	// workers.
	Tier         string `json:"tier,omitempty"`
	Rounds       int    `json:"rounds,omitempty"`
	FleetShards  int    `json:"fleet_shards,omitempty"`
	FleetWorkers int    `json:"fleet_workers,omitempty"`
	// Backends lists the matrix rows; empty means every backend.
	Backends []string `json:"backends,omitempty"`
	// NumShards is the (prime) number of residue classes the space is cut
	// into; -seed N runs class N mod NumShards.
	NumShards   int    `json:"num_shards,omitempty"`
	SampleEvery int64  `json:"sample_every,omitempty"`
	Reorder     int    `json:"reorder,omitempty"`
	Faults      string `json:"faults,omitempty"`
	// MaxWorkloads is 0 in the frozen benchmark; -scale sets it to stop
	// enumeration early (see scaled).
	MaxWorkloads int64 `json:"max_workloads,omitempty"`
}

// isFleet reports whether the workload runs through the fleet coordinator.
func (d workloadDef) isFleet() bool { return d.Tier != "" }

// isKV reports whether the workload sweeps the application-level KV family.
func (d workloadDef) isKV() bool { return b3.IsKVProfile(d.Profile) }

// workloadDefs returns the five workloads in the order they are reported.
// NumShards are all prime so a class never aliases the generators'
// nested-loop periods; they are sized so one pass takes 5–7 s at Workers=2
// on the reference box and three passes fit a 20 s run (README.md,
// "Sizing").
func workloadDefs() []workloadDef {
	return []workloadDef{
		{
			Name:      "seq2-dense",
			Why:       "every persistence point of a seq-2 class on all 5 backends; profile+check dominate, axis enumerators idle",
			Space:     "S2small",
			SpaceSize: 24471,
			NumShards: 17,
		},
		{
			Name:      "seq2-axes",
			Why:       "same space with reorder k=1 and torn/corrupt/misdirect faults; blockdev enumerators, recovery and prune cache dominate",
			Space:     "S2small",
			SpaceSize: 24471,
			NumShards: 157,
			Reorder:   1,
			Faults:    "torn,corrupt,misdirect",
		},
		{
			Name:      "kv-axes",
			Why:       "kv-seq3 application family with reorder and torn/corrupt faults; kvace, kvstore and kvoracle run, ACE and the file checker do not",
			Profile:   "kv-seq3",
			SpaceSize: 10368,
			NumShards: 17,
			Reorder:   1,
			Faults:    "torn,corrupt",
		},
		{
			Name:        "seq2-sampled",
			Why:         "1-in-50 sample of a 142,970-workload space on 2 backends; ACE enumeration, repeated per matrix row, dominates",
			Space:       "S2mid",
			SpaceSize:   142970,
			Backends:    []string{"logfs", "diskfmt"},
			NumShards:   7,
			SampleEvery: 50,
		},
		{
			Name:         "fleet-quick",
			Why:          "quick tier through a 7-class fleet of 2 workers; cold per-lease caches plus corpus, ledger and merge IO beside the compute",
			Tier:         "quick",
			SpaceSize:    820,
			Rounds:       2,
			FleetShards:  7,
			FleetWorkers: 2,
		},
	}
}

// lookupWorkload resolves a workload by name.
func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, d := range workloadDefs() {
		if d.Name == name {
			return d, nil
		}
		names = append(names, d.Name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// spaceBounds builds the named bounded ACE space.
func spaceBounds(name string) (ace.Bounds, error) {
	b := ace.Default(2)
	switch name {
	case "S2small":
		b.Files = []string{"/foo", "/A/bar"}
		b.Dirs = []string{"/A"}
		b.XattrNames = []string{"user.u1"}
		b.WriteSems = b.WriteSems[:2]
		b.FallocVariants = b.FallocVariants[:3]
	case "S2mid":
		b.Files = []string{"/foo", "/bar", "/A/foo"}
		b.Dirs = []string{"/A"}
	default:
		return ace.Bounds{}, fmt.Errorf("unknown space %q", name)
	}
	return b, nil
}

// scaled returns the workload resized for -scale s (0 < s ≤ 1): enumeration
// stops after the first s·SpaceSize workloads (the class is cut from that
// prefix, so the generators' fixed cost shrinks with it), and the fleet runs
// ⌈Rounds·s⌉ rounds. Scale 1 is the frozen benchmark; anything else is a
// smoke run whose numbers are not comparable with it.
func (d workloadDef) scaled(s float64) workloadDef {
	if s >= 1 {
		return d
	}
	if d.isFleet() {
		d.Rounds = max(1, int(math.Ceil(float64(d.Rounds)*s)))
		return d
	}
	d.MaxWorkloads = int64(math.Ceil(float64(d.SpaceSize) * s))
	return d
}

// shardOf maps a seed to its residue class.
func (d workloadDef) shardOf(seed int64) int {
	if d.NumShards <= 1 {
		return 0
	}
	n := int64(d.NumShards)
	return int((seed%n + n) % n)
}

// backendNames resolves the matrix rows.
func (d workloadDef) backendNames() []string {
	if len(d.Backends) > 0 {
		return d.Backends
	}
	return b3.FSNames()
}

// backends constructs the matrix rows in the campaign's configuration
// (b3.CampaignConfig: the paper's new-bugs-only mechanisms).
func (d workloadDef) backends() ([]b3.FileSystem, error) {
	var fss []b3.FileSystem
	for _, name := range d.backendNames() {
		fs, err := b3.NewFS(name, b3.CampaignConfig())
		if err != nil {
			return nil, err
		}
		fss = append(fss, fs)
	}
	return fss, nil
}

// campaign lowers the workload plus a seed into the facade Campaign the
// program under test sees. reference selects the unpruned scratch engines
// (the verdict gate's source of truth).
func (d workloadDef) campaign(seed int64, workers int, reference bool) (b3.Campaign, error) {
	c := b3.Campaign{
		Workers:      workers,
		SampleEvery:  d.SampleEvery,
		MaxWorkloads: d.MaxWorkloads,
		Reorder:      d.Reorder,
		DedupKnown:   true,
	}
	if d.NumShards > 1 {
		c.Shard, c.NumShards = d.shardOf(seed), d.NumShards
	}
	if d.Faults != "" {
		kinds, err := b3.ParseFaultKinds(d.Faults)
		if err != nil {
			return b3.Campaign{}, err
		}
		c.Faults = b3.FaultModel{Kinds: kinds}
	}
	switch {
	case d.Space != "":
		bounds, err := spaceBounds(d.Space)
		if err != nil {
			return b3.Campaign{}, err
		}
		c.Bounds = &bounds
	case d.Profile != "":
		c.Profile = b3.ProfileName(d.Profile)
	case d.isFleet():
		// The unsharded campaign of the tier: the fleet's reference and the
		// base of fleet.makespan_over_unsharded.
		tier, err := b3.LookupCampaignTier(d.Tier)
		if err != nil {
			return b3.Campaign{}, err
		}
		c.Profile, c.SampleEvery, c.Reorder = tier.Profile, tier.SampleEvery, tier.Reorder
		if tier.Faults != "" {
			kinds, err := b3.ParseFaultKinds(tier.Faults)
			if err != nil {
				return b3.Campaign{}, err
			}
			c.Faults = b3.FaultModel{Kinds: kinds, SectorSize: tier.Sector}
		}
	}
	if reference {
		c.Workers = 1
		c.NoPrune, c.ScratchStates, c.NoClassPrune, c.NoCommutePrune = true, true, true, true
	}
	return c, nil
}

// inClass reports whether the workload with this sequence number belongs to
// the campaign's class: on the sampling stride and, when sharded, in the
// residue class of the sampled index (campaign.Config.Shard's rule).
func inClass(c b3.Campaign, seq int64) bool {
	sample := max(c.SampleEvery, 1)
	if seq%sample != 0 {
		return false
	}
	return c.NumShards <= 1 || (seq/sample)%int64(c.NumShards) == int64(c.Shard)
}

// classSize is the number of workloads of one matrix row that belong to the
// campaign's class: the members of 1..generated (unsampled) or of the
// sampled subsequence 1..generated/sample whose index is ≡ Shard mod
// NumShards, cut at MaxWorkloads. It is a function of the space and the
// seed alone, which is what makes workloads_per_s comparable across engines
// that skip different work.
func classSize(c b3.Campaign, generated int64) int64 {
	n := generated
	if c.MaxWorkloads > 0 {
		n = min(n, c.MaxWorkloads)
	}
	if c.SampleEvery > 1 {
		n /= c.SampleEvery
	}
	if c.NumShards <= 1 {
		return n
	}
	s, m := int64(c.Shard), int64(c.NumShards)
	if s == 0 {
		return n / m
	}
	if n < s {
		return 0
	}
	return (n-s)/m + 1
}

// defaultWorkers is the frozen sweep width: min(2, nproc).
func defaultWorkers() int { return min(2, runtime.NumCPU()) }
