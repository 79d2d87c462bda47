package campaign

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"b3/internal/blockdev"
	"b3/internal/fsmake"
)

// recordPoison is blockdev's test hook (recorder.go): the byte
// Recorder.Release fills every record buffer with as it hands it back to
// the pool. An export_test.go compiles only into its own package's tests, so
// this package reaches the unexported variable by its linker name.
//
//go:linkname recordPoison b3/internal/blockdev.recordPoison
var recordPoison byte

// snapshotPoison is blockdev's test hook (blockdev.go): the byte
// Snapshot.Release fills a tracked snapshot's overlay buffers with as it
// hands them back to the pool, keeping the snapshot itself out of the pool.
//
//go:linkname snapshotPoison b3/internal/blockdev.snapshotPoison
var snapshotPoison byte

// lentPoison is diskfmt's test hook (diskfmt.go): the byte a verified
// payload's lease fills its pooled scratch buffer with as it releases it.
//
//go:linkname lentPoison b3/internal/fs/diskfmt.lentPoison
var lentPoison byte

// clearVerified empties diskfmt's verified-payload memo and starts its page
// store over (diskfmt.go).
//
//go:linkname clearVerified b3/internal/fs/diskfmt.clearVerified
func clearVerified()

// sweepOutcome renders what a campaign found, without what the schedule
// decides at Workers > 1 (which worker judges a class first, and so the
// pruned/checked and class-skip splits and each group's exemplar) and
// without timings: per row the workload and state counts, the broken states
// of each axis, the KV classes, and every bug group with each of its
// reports' workload and findings, in sorted order.
func sweepOutcome(m *Matrix) string {
	var sb strings.Builder
	for _, s := range m.PerFS {
		fmt.Fprintf(&sb, "%s: generated=%d tested=%d failed=%d errors=%d states=%d reorder=%d r-broken=%d kv=%+v\n",
			s.FSName, s.Generated, s.Tested, s.Failed, s.Errors, s.StatesTotal,
			s.ReorderStates, s.ReorderBroken, s.KVClasses)
		for _, k := range s.FaultKinds {
			fmt.Fprintf(&sb, "  %s: states=%d broken=%d\n", k.Kind, k.States, k.Broken)
		}
		for _, g := range s.Groups {
			fmt.Fprintf(&sb, "  group %s | %s:\n", g.Key.Skeleton, g.Key.Consequence)
			lines := make([]string, len(g.Reports))
			for i, r := range g.Reports {
				lines[i] = fmt.Sprintf("    %s %v\n", r.WorkloadID, r.Findings)
			}
			slices.Sort(lines)
			sb.WriteString(strings.Join(lines, ""))
		}
	}
	return sb.String()
}

// TestRecordBuffersDieWithProfile pins the lifetime rule of recorded blocks:
// a Record.Data, and every view the recorder lent, is pooled by the owning
// profile's Release and must not be read after it. With the poison hook on,
// Release fills each record buffer with garbage as it pools it, so a sweep
// that still read a released log, or a view of one, would recover different
// states than with the hook off. The quick tier on every backend, at two
// workers so pooled buffers move between goroutines, must find exactly the
// same thing either way.
func TestRecordBuffersDieWithProfile(t *testing.T) {
	tier, err := LookupTier("quick")
	if err != nil {
		t.Fatal(err)
	}
	run := func(poison byte) string {
		t.Helper()
		cfg, fss, err := tier.Lower(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 2
		recordPoison = poison
		defer func() { recordPoison = 0 }()
		m, err := RunMatrix(cfg, fss)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.PerFS) != 5 {
			t.Fatalf("quick tier ran %d backends, want 5", len(m.PerFS))
		}
		return sweepOutcome(m)
	}
	clean, poisoned := run(0), run(0xA5)
	if clean != poisoned {
		t.Fatalf("poisoning released record buffers changed the outcome: a sweep read a log after its profile's Release\nhook off:\n%s\nhook on:\n%s",
			clean, poisoned)
	}
}

// TestSnapshotsDieWithRelease pins the lifetime rule of tracked snapshots:
// a crash-state fork, a rolling snapshot and every view they lent die with
// the snapshot's Release, which recycles the snapshot and its overlay
// buffers for the next state. With the poison hook on, Release fills each
// overlay buffer with garbage and leaves the snapshot holding it, so a
// sweep or a checker that still read a released state, or a view of one,
// would judge different states than with the hook off. The quick tier on
// every backend, at two workers so pooled snapshots and buffers move
// between goroutines, must find exactly the same thing either way.
func TestSnapshotsDieWithRelease(t *testing.T) {
	tier, err := LookupTier("quick")
	if err != nil {
		t.Fatal(err)
	}
	run := func(poison byte) string {
		t.Helper()
		cfg, fss, err := tier.Lower(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 2
		snapshotPoison = poison
		defer func() { snapshotPoison = 0 }()
		m, err := RunMatrix(cfg, fss)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.PerFS) != 5 {
			t.Fatalf("quick tier ran %d backends, want 5", len(m.PerFS))
		}
		return sweepOutcome(m)
	}
	clean, poisoned := run(0), run(0xA5)
	if clean != poisoned {
		t.Fatalf("poisoning released snapshots changed the outcome: a state was read after its Release\nhook off:\n%s\nhook on:\n%s",
			clean, poisoned)
	}
}

// TestLentPayloadsDieWithRead pins the lifetime rule of verified payloads:
// recovery reads an image or log record through a lease whose bytes are
// valid only until it is released, and every decoded value the memo keeps
// (trees, log batches, patches) must hold copies or page-store pages, never
// a view of the lent bytes. With the poison hook on, each lent scratch
// buffer is filled with garbage as it goes back to the pool, so a decoded
// value that kept a view would read garbage where its payload was. The
// quick tier on every backend, at two workers so pooled buffers move
// between goroutines, and starting from an empty memo each time, must find
// exactly the same thing either way.
func TestLentPayloadsDieWithRead(t *testing.T) {
	tier, err := LookupTier("quick")
	if err != nil {
		t.Fatal(err)
	}
	run := func(poison byte) string {
		t.Helper()
		cfg, fss, err := tier.Lower(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 2
		clearVerified()
		lentPoison = poison
		defer func() { lentPoison = 0 }()
		m, err := RunMatrix(cfg, fss)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.PerFS) != 5 {
			t.Fatalf("quick tier ran %d backends, want 5", len(m.PerFS))
		}
		return sweepOutcome(m)
	}
	clean, poisoned := run(0), run(0xA5)
	if clean != poisoned {
		t.Fatalf("poisoning released payload buffers changed the outcome: a decoded value kept a view of lent bytes\nhook off:\n%s\nhook on:\n%s",
			clean, poisoned)
	}
}

// TestKVSweepSharesDecodedState runs the kv-seq1 family with k=1 reordering
// and torn and corrupt faults on every backend at two workers, which recover
// crash states side by side and so share the images and log records the
// verified-payload memo keeps decoded (one committed image serves many
// workloads' states). It must find exactly what one worker finds. Under the
// race detector, a backend that writes through a shared decoded tree or
// record while the other worker reads it fails here.
func TestKVSweepSharesDecodedState(t *testing.T) {
	run := func(workers int) string {
		t.Helper()
		cfg := Config{
			KV:      kvBounds(t, "kv-seq1"),
			Reorder: 1,
			Faults:  blockdev.FaultModel{Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt}},
			Workers: workers,
		}
		m, err := RunMatrix(cfg, bugsOnly(t, fsmake.Names()...))
		if err != nil {
			t.Fatal(err)
		}
		return sweepOutcome(m)
	}
	if one, two := run(1), run(2); one != two {
		t.Fatalf("two workers found something else than one\none worker:\n%s\ntwo workers:\n%s", one, two)
	}
}
