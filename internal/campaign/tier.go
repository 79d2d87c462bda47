// Campaign tiers: named presets binding a workload profile to the
// crash-state knobs a recurring sweep should run with, so CI jobs, the
// fleet coordinator, and a human at the CLI all mean the same thing by
// "quick" or "nightly" instead of each hand-assembling a flag soup that
// silently drifts.
package campaign

import (
	"fmt"
	"strings"

	"b3/internal/ace"
)

// Tier is one named campaign preset: a name plus the Spec it stands for
// (its NumShards and CorpusDir are left to the caller).
type Tier struct {
	Name string
	Spec
}

// Tiers returns the named presets, cheapest first.
//
//   - quick: the CI smoke configuration — seq-1 across every backend with
//     bounded reordering k=1. Small enough for a pull-request gate, broad
//     enough that every backend and the reorder axis stay exercised.
//   - nightly: the unsampled seq-3-metadata sweep across every backend —
//     the PR 7 tractability target, sized for a scheduled run.
//   - kv-quick: the application-workload smoke — the kv-seq1 space across
//     every backend with bounded reordering k=1, every crash state judged
//     by the expected-state oracle.
//   - kv-nightly: the full kv-seq2 space across every backend with the
//     reorder and torn/corrupt fault axes.
func Tiers() []Tier {
	all := []string{"all"}
	return []Tier{
		{"quick", Spec{Profile: ace.ProfileSeq1, FS: all, Reorder: 1}},
		{"nightly", Spec{Profile: ace.ProfileSeq3Metadata, FS: all}},
		{"kv-quick", Spec{Profile: "kv-seq1", FS: all, Reorder: 1}},
		{"kv-nightly", Spec{Profile: "kv-seq2", FS: all, Reorder: 1, Faults: "torn,corrupt"}},
	}
}

// LookupTier resolves a tier by name, failing with the list of valid names.
func LookupTier(name string) (Tier, error) {
	var names []string
	for _, t := range Tiers() {
		if t.Name == name {
			return t, nil
		}
		names = append(names, t.Name)
	}
	return Tier{}, fmt.Errorf("campaign: unknown tier %q (have %s)", name, strings.Join(names, ", "))
}
