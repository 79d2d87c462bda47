package corpus

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testMeta() Meta {
	return Meta{FS: "logfs", Profile: "seq-2", Bounds: "abc123|sample=1|final=false|writechecks=true"}
}

func rec(seq int64, verdict string) *WorkloadRecord {
	r := &WorkloadRecord{
		Seq: seq, ID: "ace-x", Verdict: verdict,
		States: 2, Checked: 1, Pruned: 1,
		RStates: 7, RChecked: 4, RPruned: 3, RBroken: 1,
	}
	if verdict == VerdictBuggy {
		r.Skeleton = "creat A; fsync A"
		r.Workload = "creat /foo\nfsync /foo\n"
		r.Reports = []ReportRecord{{
			Checkpoint: 1,
			Primary:    5,
			Findings:   []Finding{{Consequence: 5, Path: "/foo", Detail: "data gone"}},
		}}
	}
	return r
}

func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "logfs__seq-2__abc", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		v := VerdictClean
		if i%2 == 0 {
			v = VerdictBuggy
		}
		if err := s.Append(rec(i, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadShard(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	meta, records := loaded.Meta, loaded.Records
	if meta.FS != "logfs" || meta.Format != FormatVersion {
		t.Fatalf("meta mangled: %+v", meta)
	}
	if len(records) != 5 {
		t.Fatalf("want 5 records, got %d", len(records))
	}
	got := records[1]
	if got.Seq != 2 || got.Verdict != VerdictBuggy || len(got.Reports) != 1 {
		t.Fatalf("record mangled: %+v", got)
	}
	if got.Reports[0].Findings[0].Path != "/foo" {
		t.Fatalf("finding mangled: %+v", got.Reports[0])
	}
	if got.RStates != 7 || got.RChecked != 4 || got.RPruned != 3 || got.RBroken != 1 {
		t.Fatalf("reorder totals mangled: %+v", got)
	}
}

func TestLoadToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	s.Append(rec(1, VerdictClean))
	s.Append(rec(2, VerdictClean))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write: a partial JSON line with no newline.
	f, err := os.OpenFile(s.Path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"workload":{"seq":3,"verdi`)
	f.Close()

	loaded, err := LoadShard(s.Path())
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(loaded.Records) != 2 {
		t.Fatalf("want the 2 intact records, got %d", len(loaded.Records))
	}
}

// TestResumeTruncatesTornTail: appending after a kill must not land on the
// partial bytes of the torn line — the resumed shard stays loadable.
func TestResumeTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	s.Append(rec(1, VerdictClean))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.Path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"workload":{"seq":2,"verdi`)
	f.Close()

	s2, done, err := Resume(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("want 1 intact record, got %d", len(done))
	}
	// Seq 2 was torn away, so the campaign re-tests and re-records it.
	s2.Append(rec(2, VerdictBuggy))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadShard(s.Path())
	if err != nil {
		t.Fatalf("shard corrupted by post-kill append: %v", err)
	}
	if records := loaded.Records; len(records) != 2 || records[1].Seq != 2 || records[1].Verdict != VerdictBuggy {
		t.Fatalf("re-tested record mangled: %+v", records)
	}
}

func TestLoadRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	s.Append(rec(1, VerdictClean))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.Path())
	mangled := strings.Replace(string(data), `"seq":1`, `"seq":??`, 1)
	mangled += `{"workload":{"seq":2,"id":"ace-2","verdict":"clean"}}` + "\n"
	os.WriteFile(s.Path(), []byte(mangled), 0o644)

	if _, err := LoadShard(s.Path()); err == nil {
		t.Fatal("corruption before the final line must be an error, not a torn tail")
	}
}

func TestResumeCreatesMissingShard(t *testing.T) {
	dir := t.TempDir()
	s, done, err := Resume(dir, "fresh", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(done) != 0 {
		t.Fatalf("fresh shard reported %d done workloads", len(done))
	}
	if _, err := os.Stat(filepath.Join(dir, "fresh.jsonl")); err != nil {
		t.Fatalf("shard file not created: %v", err)
	}
}

func TestResumeReturnsRecordedWork(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	s.Append(rec(1, VerdictClean))
	s.Append(rec(4, VerdictBuggy))
	// A re-tested duplicate must supersede the original.
	dup := rec(1, VerdictError)
	s.Append(dup)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, done, err := Resume(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(done) != 2 {
		t.Fatalf("want 2 distinct seqs, got %d", len(done))
	}
	if done[1].Verdict != VerdictError {
		t.Fatalf("later duplicate did not win: %+v", done[1])
	}
	if done[4].Verdict != VerdictBuggy || len(done[4].Reports) != 1 {
		t.Fatalf("buggy record mangled: %+v", done[4])
	}

	// Appending after resume keeps the shard loadable.
	s2.Append(rec(5, VerdictClean))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShard(ShardPath(dir, "shard"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != 4 {
		t.Fatalf("want 4 records after resumed append, got %d", len(loaded.Records))
	}
}

// TestResumeRecreatesMetaTornShard: a kill before the very first fsync can
// leave a shard with no complete meta line; resume must start fresh, not
// fail forever.
func TestResumeRecreatesMetaTornShard(t *testing.T) {
	dir := t.TempDir()
	path := ShardPath(dir, "shard")
	if err := os.WriteFile(path, []byte(`{"meta":{"format":1,"fs":"log`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, done, err := Resume(dir, "shard", testMeta())
	if err != nil {
		t.Fatalf("meta-torn shard not recreated: %v", err)
	}
	defer s.Close()
	if len(done) != 0 {
		t.Fatalf("recreated shard reported %d done workloads", len(done))
	}
	s.Append(rec(1, VerdictClean))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShard(path); err != nil {
		t.Fatalf("recreated shard unreadable: %v", err)
	}
}

// TestConcurrentWritersExcluded: the flock guard makes a second campaign on
// the same shard fail fast instead of clobbering the first.
func TestConcurrentWritersExcluded(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Append(rec(1, VerdictClean))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if _, err := Create(dir, "shard", testMeta()); err == nil {
		t.Fatal("second Create on a live shard must fail")
	}
	if _, _, err := Resume(dir, "shard", testMeta()); err == nil {
		t.Fatal("Resume of a live shard must fail")
	}
	// The loser must not have truncated the live writer's data.
	loaded, err := LoadShard(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != 1 {
		t.Fatalf("live shard damaged by excluded writer: %d records", len(loaded.Records))
	}
}

// TestKilledShardFailsLoudly: once the underlying file dies, every Append
// and Checkpoint must return an error — a campaign writing into a dead
// shard must find out immediately, not at the final checkpoint.
func TestKilledShardFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "kill", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(1, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	if err := s.Append(rec(2, VerdictClean)); err == nil {
		t.Fatal("Append on a killed shard must fail")
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a killed shard must fail")
	}
	// The failure is sticky: with auto-checkpointing off, an Append that
	// would only buffer must still fail rather than queue a record behind
	// the lost one.
	s.FlushEvery = 0
	if err := s.Append(rec(3, VerdictClean)); err == nil {
		t.Fatal("Append after a failed Append must fail")
	}

	// A failed fsync is sticky as well, although the flush before it
	// succeeded and leaves nothing buffered to fail again. Only Sync sees the
	// swapped-in closed handle; the buffered writer keeps the live one.
	s2, err := Create(dir, "sync", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	live := s2.f
	defer live.Close()
	dead, err := os.Open(s2.Path())
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	s2.f = dead
	s2.FlushEvery = 0
	if err := s2.Append(rec(1, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err == nil {
		t.Fatal("Checkpoint whose fsync fails must fail")
	}
	if err := s2.Append(rec(2, VerdictClean)); err == nil {
		t.Fatal("Append after a failed fsync must fail")
	}
}

func TestResumeRefusesMismatchedMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "shard", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	other := testMeta()
	other.Bounds = "different-space"
	if _, _, err := Resume(dir, "shard", other); err == nil {
		t.Fatal("resume against a different workload space must fail")
	}
}

func TestShardKeySanitized(t *testing.T) {
	p := ShardPath("/tmp/x", "logfs/seq 2|sample=3")
	base := filepath.Base(p)
	if strings.ContainsAny(base, "/| ") {
		t.Fatalf("unsafe shard name %q", base)
	}
}

// TestMetaMismatchNamesKnob: a fingerprint mismatch on resume must be
// self-diagnosing — the error carries both full fingerprints and names the
// exact knob (or the workload space) that differs.
func TestMetaMismatchNamesKnob(t *testing.T) {
	dir := t.TempDir()
	recorded := testMeta() // bounds "...|sample=1|final=false|writechecks=true"
	s, err := Create(dir, "mismatch", recorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := recorded
	want.Bounds = "abc123|sample=7|final=false|writechecks=true"
	_, _, err = Resume(dir, "mismatch", want)
	if err == nil {
		t.Fatal("sample mismatch accepted")
	}
	var mm *MetaMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("want *MetaMismatchError, got %T: %v", err, err)
	}
	msg := err.Error()
	for _, needle := range []string{
		"sample: shard has 1, campaign wants 7", // the offending knob, by name
		recorded.Bounds, want.Bounds,            // both full fingerprints
	} {
		if !strings.Contains(msg, needle) {
			t.Fatalf("mismatch message misses %q:\n%s", needle, msg)
		}
	}

	// A different workload space (the hash segment) is named as such.
	want = recorded
	want.Bounds = "ffff99|sample=1|final=false|writechecks=true"
	_, _, err = Resume(dir, "mismatch", want)
	if err == nil || !strings.Contains(err.Error(), "workload space") {
		t.Fatalf("space mismatch not named: %v", err)
	}

	// A shard-identity mismatch (hand-moved residue-class file) too.
	want = recorded
	want.Shard, want.NumShards = 1, 4
	_, _, err = Resume(dir, "mismatch", want)
	if err == nil || !strings.Contains(err.Error(), "shard: shard file is unsharded, campaign wants 1/4") {
		t.Fatalf("shard mismatch not named: %v", err)
	}
}

// TestDoneRecordLifecycle: the completion marker survives a round-trip,
// goes stale when records follow it (a resumed-but-unfinished shard), and
// is restored by the next completion.
func TestDoneRecordLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "done", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(1, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDone(DoneRecord{Generated: 10, ElapsedNS: 5e9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShard(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done == nil || loaded.Done.Generated != 10 || loaded.Done.ElapsedNS != 5e9 {
		t.Fatalf("done marker mangled: %+v", loaded.Done)
	}

	// Resume past the recorded end without finishing: the marker is stale
	// and must read as absent.
	s2, _, err := Resume(dir, "done", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(rec(2, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadShard(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done != nil {
		t.Fatalf("stale completion marker survived a resumed append: %+v", loaded.Done)
	}

	// Finishing again restores it, with the latest value winning.
	s3, _, err := Resume(dir, "done", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.AppendDone(DoneRecord{Generated: 12}); err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err = LoadShard(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done == nil || loaded.Done.Generated != 12 {
		t.Fatalf("refreshed completion marker wrong: %+v", loaded.Done)
	}
	if len(loaded.Records) != 2 {
		t.Fatalf("want 2 records, got %d", len(loaded.Records))
	}
}

// TestLoadDir: every .jsonl shard under a directory loads, sorted by file
// name; an empty directory is an error.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	for i, key := range []string{"b_shard", "a_shard"} {
		m := testMeta()
		m.Shard, m.NumShards = i, 2
		s, err := Create(dir, key, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec(int64(i+1), VerdictClean)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644)

	shards, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(shards))
	}
	if !strings.HasSuffix(shards[0].Path, "a_shard.jsonl") {
		t.Fatalf("shards not name-sorted: %s first", shards[0].Path)
	}
	if shards[0].Meta.ShardLabel() != "1/2" || shards[1].Meta.ShardLabel() != "0/2" {
		t.Fatalf("shard identities mangled: %s / %s",
			shards[0].Meta.ShardLabel(), shards[1].Meta.ShardLabel())
	}

	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// TestRecordsAfterDoneFailLoudly: workload records directly after a
// completion marker — the unannounced append this package's own writers
// never produce — must fail loading with ErrRecordsAfterDone instead of
// silently reading as an incomplete shard. The announced path (Resume's
// Reopen record) stays loadable.
func TestRecordsAfterDoneFailLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "staleness", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(1, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDone(DoneRecord{Generated: 4}); err != nil {
		t.Fatal(err)
	}
	// Simulate a foreign writer (older build, hand-edit, concatenation)
	// appending a record without announcing the reopen.
	if err := s.Append(rec(2, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShard(s.Path()); !errors.Is(err, ErrRecordsAfterDone) {
		t.Fatalf("unannounced record after done marker loaded with err=%v, want ErrRecordsAfterDone", err)
	}
	// Resume goes through the same loader, so the poisoned shard cannot be
	// silently extended either.
	if _, _, err := Resume(dir, "staleness", testMeta()); !errors.Is(err, ErrRecordsAfterDone) {
		t.Fatalf("Resume: got %v, want ErrRecordsAfterDone", err)
	}

	// The announced path: Resume invalidates the marker with a Reopen record
	// before appending, so the same byte sequence modulo the Reopen line
	// loads cleanly as an in-progress shard.
	s2, err := Create(dir, "reopened", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(rec(1, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendDone(DoneRecord{Generated: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, recs, err := Resume(dir, "reopened", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("resumed shard lost records: got %d, want 1", len(recs))
	}
	if err := s3.Append(rec(2, VerdictClean)); err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShard(s3.Path())
	if err != nil {
		t.Fatalf("announced resume-past-done shard refused: %v", err)
	}
	if loaded.Done != nil {
		t.Fatalf("reopened shard still reads as complete: %+v", loaded.Done)
	}
	if len(loaded.Records) != 2 {
		t.Fatalf("want 2 records after announced extension, got %d", len(loaded.Records))
	}
}
