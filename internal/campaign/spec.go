package campaign

import (
	"fmt"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvace"
)

// Spec is the serialisable description of one campaign: the workload
// space, the backends under test and the crash-state axes. Tiers, fleet
// leases and the b3 CLI all describe a campaign this way, and Lower is the
// one place any of them becomes a runnable Config. The JSON form is what a
// fleet ledger journals and a lease carries, so field order, types and
// tags are part of the ledger format.
type Spec struct {
	// Profile names the workload profile: an ACE file-space profile
	// (ace.Profiles) or a "kv-" application-workload profile (kvace).
	Profile ace.ProfileName `json:"profile"`
	// FS lists backend names; empty or the single entry "all" means every
	// backend.
	FS []string `json:"fs"`
	// NumShards is a fleet's initial uniform residue partition (≥ 1). Lower
	// takes the residue class explicitly, since a fleet lease may refine it.
	NumShards int `json:"num_shards"`
	// SampleEvery tests every n-th workload (0/1 = all).
	SampleEvery int64 `json:"sample_every,omitempty"`
	// Reorder is the bounded-reordering sweep bound (0 = off).
	Reorder int `json:"reorder,omitempty"`
	// Faults is the -faults comma list ("" = no fault axis).
	Faults string `json:"faults,omitempty"`
	// Sector is the torn-write granularity (0 = default); it needs Faults.
	Sector int `json:"sector,omitempty"`
	// CorpusDir is the corpus directory shards checkpoint into ("" = none).
	CorpusDir string `json:"corpus_dir"`
}

// ProfileSpace maps a profile name to its workload space: ACE bounds, or
// for a "kv-" profile the kvace bounds (the ACE bounds are then unused).
func ProfileSpace(name ace.ProfileName) (ace.Bounds, *kvace.Bounds, error) {
	if kvace.IsProfile(string(name)) {
		kv, err := kvace.Profile(string(name))
		if err != nil {
			return ace.Bounds{}, nil, err
		}
		return ace.Bounds{}, &kv, nil
	}
	bounds, err := ace.Profile(name)
	return bounds, nil, err
}

// Lower resolves the spec into the Config of residue class shard of
// numShards and the file systems the campaign sweeps, each built with only
// the Table 5 bug mechanisms active. numShards ≤ 1 lowers to an unsharded
// campaign, so a single-class fleet writes the corpus a plain run does. The
// fault model is validated here, so a spec that lowers cleanly is one
// RunMatrix accepts. Every other Config field is left at its zero value
// for the caller to set.
func (s Spec) Lower(shard, numShards int) (Config, []filesys.FileSystem, error) {
	bounds, kv, err := ProfileSpace(s.Profile)
	if err != nil {
		return Config{}, nil, err
	}
	if s.SampleEvery < 0 {
		return Config{}, nil, fmt.Errorf("campaign: negative sample interval %d", s.SampleEvery)
	}
	var faults blockdev.FaultModel
	if s.Faults != "" {
		kinds, err := blockdev.ParseFaultKinds(s.Faults)
		if err != nil {
			return Config{}, nil, err
		}
		faults = blockdev.FaultModel{Kinds: kinds, SectorSize: s.Sector}
		if err := faults.Validate(); err != nil {
			return Config{}, nil, err
		}
	} else if s.Sector != 0 {
		return Config{}, nil, fmt.Errorf("campaign: sector %d has no effect without faults", s.Sector)
	}
	names := s.FS
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = fsmake.Names()
	}
	fss := make([]filesys.FileSystem, 0, len(names))
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			return Config{}, nil, err
		}
		fss = append(fss, fs)
	}
	cfg := Config{
		Bounds:       bounds,
		KV:           kv,
		SampleEvery:  s.SampleEvery,
		Reorder:      s.Reorder,
		Faults:       faults,
		CorpusDir:    s.CorpusDir,
		ProfileLabel: string(s.Profile),
	}
	if numShards > 1 {
		cfg.Shard, cfg.NumShards = shard, numShards
	}
	return cfg, fss, nil
}
