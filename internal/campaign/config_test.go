package campaign

import (
	"path/filepath"
	"testing"
)

// TestConfigFingerprintPinned pins configFingerprint and the corpus shard
// file name openCorpus derives from it. Both are on-disk formats: a drift
// in either strands every existing corpus shard (resume starts afresh,
// merge refuses the mixed set), so the expected strings were recorded
// once and must never be regenerated from the current build.
func TestConfigFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name             string
		spec             Spec
		shard, numShards int
		fp, file         string
	}{
		{"seq-1", Spec{Profile: "seq-1"}, 0, 0,
			"96c3cdc930e4871e|sample=1|final=false|writechecks=true|reorder=0",
			"logfs__seq-1__8faca2a58f0cc297.jsonl"},
		{"seq-1 reorder faults", Spec{Profile: "seq-1", Reorder: 1, Faults: "torn,corrupt", Sector: 1024}, 0, 0,
			"96c3cdc930e4871e|sample=1|final=false|writechecks=true|reorder=1|faults=torn+corrupt|sector=1024",
			"logfs__seq-1__35e13b921a0ad4a9.jsonl"},
		{"seq-1 sample shard", Spec{Profile: "seq-1", SampleEvery: 7}, 2, 5,
			"96c3cdc930e4871e|sample=7|final=false|writechecks=true|reorder=0",
			"logfs__seq-1__272b377ddd4d983d__s2of5.jsonl"},
		{"kv-seq1", Spec{Profile: "kv-seq1"}, 0, 0,
			"7e6c536e7c270ebd|sample=1|final=false|writechecks=true|reorder=0|workload=kv",
			"logfs__kv-seq1__35106f90d53a4f27.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.FS = []string{"logfs"}
			cfg, fss, err := tc.spec.Lower(tc.shard, tc.numShards)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FS, cfg.CorpusDir = fss[0], t.TempDir()
			if got := cfg.configFingerprint(); got != tc.fp {
				t.Errorf("fingerprint %q, want %q", got, tc.fp)
			}
			r := &fsRun{cfg: cfg, stats: &Stats{}}
			if err := r.openCorpus(); err != nil {
				t.Fatal(err)
			}
			defer r.shard.Close()
			if got := filepath.Base(r.shard.Path()); got != tc.file {
				t.Errorf("shard file %q, want %q", got, tc.file)
			}
		})
	}
}
