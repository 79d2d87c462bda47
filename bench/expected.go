package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

// expectedFile is bench/expected.json: for each workload and each pinned
// residue class, the exact counts the reference engines produced. It is
// written only by -record-expected, from NoPrune + ScratchStates +
// NoClassPrune + NoCommutePrune at Workers=1 — never from the fast path it
// later judges.
type expectedFile struct {
	// Note says how the file was made.
	Note string `json:"note"`
	// Workloads maps workload name → class ("shard/numShards") → rows.
	Workloads map[string]map[string][]rowCounts `json:"workloads"`
}

func classKey(shard, numShards int) string { return fmt.Sprintf("%d/%d", shard, numShards) }

// loadExpected reads the gate file; a missing file is an empty gate (every
// pass is then checked only against the other passes).
func loadExpected(path string) (*expectedFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &expectedFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

// rows returns the pinned counts of one class, nil when it is not pinned.
// The fleet workload has a single class: the whole tier.
func (e *expectedFile) rows(def workloadDef, shard int) []rowCounts {
	if e == nil {
		return nil
	}
	return e.Workloads[def.Name][classKey(shard, def.NumShards)]
}

// recordExpected rewrites the gate file from the reference engines, one
// child per (workload, seed).
func recordExpected(o options, seedList string) error {
	if o.scale != 1 {
		return errors.New("-record-expected pins the frozen workloads; it cannot be combined with -scale")
	}
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-record-seeds: %w", err)
		}
		seeds = append(seeds, n)
	}
	defs, err := o.selected()
	if err != nil {
		return err
	}
	exp, err := loadExpected(o.expected)
	if err != nil {
		return err
	}
	exp.Note = "written by `go run ./bench -record-expected` from the reference engines " +
		"(NoPrune, ScratchStates, NoClassPrune, NoCommutePrune, Workers=1); do not edit by hand"
	if exp.Workloads == nil {
		exp.Workloads = map[string]map[string][]rowCounts{}
	}
	for _, def := range defs {
		// Keep what is already pinned for this partition (so classes can be
		// added a few at a time); drop pins of any other NumShards.
		classes := map[string][]rowCounts{}
		for key, rows := range exp.Workloads[def.Name] {
			if strings.HasSuffix(key, fmt.Sprintf("/%d", def.NumShards)) {
				classes[key] = rows
			}
		}
		recorded := map[string]bool{}
		for _, seed := range seeds {
			key := classKey(def.shardOf(seed), def.NumShards)
			if recorded[key] {
				continue
			}
			recorded[key] = true
			spec := o.pass(def, modeReference)
			spec.Seed = seed
			fmt.Fprintf(os.Stderr, "recording %s class %s from the reference engines...\n", def.Name, key)
			res, err := spawnPass(o.ctx, spec)
			if err != nil {
				return err
			}
			if n := res.errors(); n > 0 {
				return fmt.Errorf("%s class %s: %d workloads errored under the reference engines", def.Name, key, n)
			}
			classes[key] = res.Rows
		}
		exp.Workloads[def.Name] = classes
	}
	return os.WriteFile(o.expected, exp.render(), 0o644)
}

// render writes the file with one class per line, workloads and classes in
// sorted order, so a re-recording diffs line by line.
func (e *expectedFile) render() []byte {
	var b bytes.Buffer
	note, _ := json.Marshal(e.Note)
	fmt.Fprintf(&b, "{\n \"note\": %s,\n \"workloads\": {\n", note)
	names := make([]string, 0, len(e.Workloads))
	for name := range e.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		fmt.Fprintf(&b, "  %q: {\n", name)
		classes := e.Workloads[name]
		keys := make([]string, 0, len(classes))
		for k := range classes {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, c int) bool { // by shard number, not by string
			var x, y int
			fmt.Sscanf(keys[a], "%d/", &x)
			fmt.Sscanf(keys[c], "%d/", &y)
			return x < y
		})
		for j, k := range keys {
			rows, _ := json.Marshal(classes[k])
			fmt.Fprintf(&b, "   %q: %s", k, rows)
			if j < len(keys)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("  }")
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString(" }\n}\n")
	return b.Bytes()
}
