package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"b3/internal/campaign"
	"b3/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// elapsed matches the one line of a campaign's stdout that varies between
// identical runs: the matrix header's wall-clock time.
var elapsed = regexp.MustCompile(`(?m)^(campaign matrix: \d+ file systems) in [0-9.]+s$`)

// TestGoldenRuns pins the stdout of four end-to-end runs — summary tables,
// bug groups with their exemplars and findings, block-IO metering — byte
// for byte, apart from the elapsed time.
func TestGoldenRuns(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"quick", []string{"-tier", "quick"}},
		{"kv-quick", []string{"-tier", "kv-quick"}},
		{"seq1-faults", []string{"-profile", "seq-1", "-fs", "all", "-reorder", "1", "-faults", "torn,corrupt,misdirect"}},
		{"reproduce", []string{"-reproduce"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := append([]string{"-workers", "1", "-v"}, tc.args...)
			var stdout bytes.Buffer
			if code := run(args, &stdout, io.Discard); code != 0 {
				t.Fatalf("b3 %s: exit %d", strings.Join(args, " "), code)
			}
			got := elapsed.ReplaceAllString(stdout.String(), "$1 in <elapsed>")
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("b3 %s: stdout differs from %s (rerun with -update if intended): %s",
					strings.Join(args, " "), path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff describes the first line where two outputs disagree.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}

// TestTierDefaultsUnderExplicitFlags: a tier fills the Spec, an explicit
// flag overrides its field, and an unsampled tier keeps -sample's default
// of 1 (which a fleet ledger journals, so it must not drift to 0).
func TestTierDefaultsUnderExplicitFlags(t *testing.T) {
	c, code := parseArgs([]string{"-tier", "kv-nightly", "-reorder", "2", "-corpus", "runs"}, io.Discard, io.Discard)
	if c == nil {
		t.Fatalf("parse: exit %d", code)
	}
	want := campaign.Spec{Profile: "kv-seq2", FS: []string{"all"}, SampleEvery: 1, Reorder: 2,
		Faults: "torn,corrupt", CorpusDir: "runs"}
	if !reflect.DeepEqual(c.spec, want) {
		t.Fatalf("spec %+v, want %+v", c.spec, want)
	}
}

// TestServeLedgerFromEarlierBuild reopens testdata/fleet.ledger — written
// by `b3 -serve 127.0.0.1:PORT -tier quick -fleet-shards 2 -corpus corpus`
// plus one worker, before campaign.Spec existed — under the Spec the same
// flags build today. A drift in the Spec's JSON (field order, tags, a
// tier default) fails the open with ErrSpecMismatch.
func TestServeLedgerFromEarlierBuild(t *testing.T) {
	c, code := parseArgs([]string{"-serve", "127.0.0.1:0", "-tier", "quick", "-fleet-shards", "2", "-corpus", "corpus"},
		io.Discard, io.Discard)
	if c == nil {
		t.Fatalf("parse: exit %d", code)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "fleet.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fleet.LedgerName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, events, err := fleet.OpenLedger(dir, c.serveSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(events) != 4 {
		t.Fatalf("replayed %d events, want 4 (two grants, two completes)", len(events))
	}
}

// TestServeRefusesCampaignFlags: -serve cannot pass a lease anything but
// the Spec, so it refuses, by name, every campaign flag it would
// otherwise silently drop. A removed cross-check switch is refused the
// same way by any mode, so a script still passing one fails loudly
// instead of running a different campaign.
func TestServeRefusesCampaignFlags(t *testing.T) {
	type row struct {
		args []string
		want string // the flag's name as stderr must show it
	}
	var rows []row
	for _, name := range serveRefused {
		arg := "-" + name
		switch name {
		case "max", "prune-cap":
			arg += "=10"
		case "shard":
			arg += "=0/2"
		}
		rows = append(rows, row{[]string{"-serve", "127.0.0.1:0", "-tier", "quick", "-corpus", t.TempDir(), arg}, "-" + name + " "})
	}
	rows = append(rows, row{[]string{"-tier", "quick", "-scratch-states"}, "-scratch-states\n"})
	for _, r := range rows {
		var stderr bytes.Buffer
		if code := run(r.args, io.Discard, &stderr); code != 2 {
			t.Errorf("b3 %s: exit %d, want 2", strings.Join(r.args, " "), code)
		}
		if !strings.Contains(stderr.String(), r.want) {
			t.Errorf("b3 %s: stderr %q does not name %q", strings.Join(r.args, " "), stderr.String(), r.want)
		}
	}
}

// TestReadmeFlagsMatchRun keeps README's b3 documentation and the flags
// run defines in step, both ways: every -flag on a `b3 ...` usage line or
// in a row of the flag table must exist, and every flag run defines must
// appear in one of them.
func TestReadmeFlagsMatchRun(t *testing.T) {
	var usage bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &usage); code != 0 {
		t.Fatalf("b3 -h: exit %d", code)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatalf("b3 -h listed no flags:\n%s", usage.String())
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	onLine := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	inTable := regexp.MustCompile("`-([a-z][a-z0-9-]*)")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		var names [][]string
		switch {
		case strings.HasPrefix(line, "b3 "):
			command, _, _ := strings.Cut(line, "#")
			names = onLine.FindAllStringSubmatch(command, -1)
		case strings.HasPrefix(line, "| `-"):
			names = inTable.FindAllStringSubmatch(line, -1)
		}
		for _, m := range names {
			documented[m[1]] = true
			if !defined[m[1]] {
				t.Errorf("README documents -%s, which b3 does not define: %q", m[1], line)
			}
		}
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("b3 defines -%s, but no README usage line or flag-table row shows it", name)
		}
	}
}
