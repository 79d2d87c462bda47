// Fleet fault-injection suite: every robustness mechanism is exercised by
// inducing the failure it exists for — torn ledger tails, coordinator
// crash+restart, workers that die mid-lease, zombies that still hold
// their shard lock, late heartbeats — and the end state is always held to
// the same gate as everything else in this tree: the merged fleet report
// must be identical to the unsharded single-process run.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"b3/internal/ace"
	"b3/internal/campaign"
	"b3/internal/corpus"
	"b3/internal/filesys"
	"b3/internal/fsmake"
)

// cheapSpec is a protocol-test spec: valid, but never actually run.
func cheapSpec(dir string, numShards int) Spec {
	return Spec{
		Profile:     "seq-1",
		FS:          []string{"logfs"},
		NumShards:   numShards,
		SampleEvery: 8,
		CorpusDir:   dir,
	}
}

func mustCoordinator(t *testing.T, spec Spec, opts Options) *Coordinator {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLedgerCrashSafetyAndSpecBinding(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(dir, 2)
	l, events, err := OpenLedger(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh ledger replayed %d events", len(events))
	}
	grant := Event{Kind: EventGrant, Class: Class{R: 0, N: 2}, Lease: 1, Worker: "w1"}
	expire := Event{Kind: EventExpire, Class: Class{R: 0, N: 2}, Lease: 1}
	if err := l.Append(grant); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(expire); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A coordinator killed mid-append leaves a torn final line: it must be
	// dropped on reopen and truncated away before new appends.
	path := filepath.Join(dir, LedgerName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":{"kind":"grant","cla`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, events, err = OpenLedger(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("replayed %d events after torn tail, want 2", len(events))
	}
	if events[0].Kind != EventGrant || events[0].Worker != "w1" ||
		events[1].Kind != EventExpire || events[1].Class != (Class{R: 0, N: 2}) {
		t.Fatalf("replayed events diverged: %+v", events)
	}
	if err := l.Append(grant); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, events, err = OpenLedger(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("append after torn-tail truncation lost events: have %d, want 3", len(events))
	}

	// Two coordinators must never share a ledger.
	if _, _, err := OpenLedger(dir, spec); !errors.Is(err, corpus.ErrLocked) {
		t.Fatalf("double-open not refused with ErrLocked: %v", err)
	}
	l.Close()

	// A different campaign spec must not adopt this directory.
	other := spec
	other.NumShards = 5
	if _, _, err := OpenLedger(dir, other); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("spec mismatch not refused: %v", err)
	}

	// A non-final line damaged in place is corruption, not a torn tail: the
	// open must fail naming the file and leave every byte where it was.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := []byte(strings.Replace(string(data), `"kind":"expire"`, `"kind":??`, 1))
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLedger(dir, spec); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("mid-file corruption not refused by name: %v", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(damaged) {
		t.Fatalf("refused ledger was rewritten:\n%s", after)
	}

	// A coordinator killed before its spec line reached disk leaves a torn
	// binding record: the ledger starts afresh, and what is appended after
	// it replays.
	tornDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(tornDir, LedgerName), []byte(`{"spec":`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err = OpenLedger(tornDir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(grant); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, events, err = OpenLedger(tornDir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(events) != 1 {
		t.Fatalf("ledger with a torn spec line replayed %d events, want 1", len(events))
	}
}

func TestCoordinatorRestartReplaysLeaseTable(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(dir, 4)
	opts := Options{TTL: time.Hour} // no expiry during the test
	c1, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := c1.lease("w1")
	if err != nil || l1.NoWork || l1.Complete {
		t.Fatalf("lease 1: %+v, %v", l1, err)
	}
	l2, err := c1.lease("w2")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c1.complete(CompleteRequest{Lease: l1.Lease}); err != nil || !ok {
		t.Fatalf("complete: ok=%v err=%v", ok, err)
	}
	if err := c1.release(ReleaseRequest{Lease: l2.Lease}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.lease("w3"); err != nil {
		t.Fatal(err)
	}
	before := c1.Status()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash+restart: replaying the ledger must yield the identical lease
	// table — same classes, states, lease ids, workers.
	c2 := mustCoordinator(t, spec, opts)
	after := c2.Status()
	if !reflect.DeepEqual(before.Classes, after.Classes) {
		t.Fatalf("lease table diverged across restart:\nbefore: %+v\nafter:  %+v",
			before.Classes, after.Classes)
	}
	// Lease ids keep counting — a recycled id would let a dead worker's
	// late calls act on someone else's lease.
	l4, err := c2.lease("w4")
	if err != nil {
		t.Fatal(err)
	}
	if l4.Lease <= l2.Lease || l4.Lease <= l1.Lease {
		t.Fatalf("lease id %d recycled (prior ids %d, %d)", l4.Lease, l1.Lease, l2.Lease)
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body string) (int, string) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestLateHeartbeatAndCompleteRejected(t *testing.T) {
	dir := t.TempDir()
	c := mustCoordinator(t, cheapSpec(dir, 1), Options{TTL: 150 * time.Millisecond})
	srv := httptest.NewServer(c)
	defer srv.Close()
	client := srv.Client()

	status, body := postJSON(t, client, srv.URL+"/v1/lease", `{"worker":"w1"}`)
	if status != http.StatusOK || !strings.Contains(body, `"lease":1`) {
		t.Fatalf("lease: %d %s", status, body)
	}

	// Let the lease expire, then heartbeat: the coordinator must reject it
	// (409), not resurrect the lease.
	time.Sleep(400 * time.Millisecond)
	status, _ = postJSON(t, client, srv.URL+"/v1/heartbeat", `{"lease":1}`)
	if status != http.StatusConflict {
		t.Fatalf("late heartbeat answered %d, want 409", status)
	}
	status, _ = postJSON(t, client, srv.URL+"/v1/complete", `{"lease":1}`)
	if status != http.StatusConflict {
		t.Fatalf("late complete answered %d, want 409", status)
	}

	// The class is re-issued under a new lease id; the dead worker's id
	// stays rejected (a duplicate heartbeat must not touch the successor).
	status, body = postJSON(t, client, srv.URL+"/v1/lease", `{"worker":"w2"}`)
	if status != http.StatusOK || !strings.Contains(body, `"lease":2`) {
		t.Fatalf("re-lease: %d %s", status, body)
	}
	status, _ = postJSON(t, client, srv.URL+"/v1/heartbeat", `{"lease":1}`)
	if status != http.StatusConflict {
		t.Fatalf("duplicate dead heartbeat answered %d, want 409", status)
	}
	status, _ = postJSON(t, client, srv.URL+"/v1/heartbeat", `{"lease":2}`)
	if status != http.StatusOK {
		t.Fatalf("live heartbeat answered %d, want 200", status)
	}
}

func TestWorkStealingSplitOnExpiredDemand(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(dir, 1)
	c := mustCoordinator(t, spec, Options{TTL: 150 * time.Millisecond})

	// A worker leases the only class, checkpoints a little work, and dies.
	lease, err := c.lease("w-dead")
	if err != nil || lease.NoWork {
		t.Fatalf("lease: %+v %v", lease, err)
	}
	cfg, fss, err := lease.Spec.config(lease.Class)
	if err != nil {
		t.Fatal(err)
	}
	pre := make(chan struct{})
	close(pre)
	cfg.Interrupt = pre // stop immediately: shard exists, no completion marker
	if _, err := campaign.RunMatrix(cfg, fss); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("partial run: %v", err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(shards) != 1 {
		t.Fatalf("partial corpus shards: %v, %v", shards, err)
	}

	// An idle worker asks and gets nothing — that records demand.
	idle, err := c.lease("w-idle")
	if err != nil || !idle.NoWork {
		t.Fatalf("idle lease: %+v %v", idle, err)
	}

	// On expiry the freed class must be split for the waiting worker, and
	// the dead worker's partial shard deleted (the children re-sweep the
	// class; a stale parent shard would poison the merge).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Status()
		if len(st.Classes) == 2 {
			want := []ClassStatus{
				{Class: Class{R: 0, N: 2}, State: StatePending},
				{Class: Class{R: 1, N: 2}, State: StatePending},
			}
			if !reflect.DeepEqual(st.Classes, want) {
				t.Fatalf("split table: %+v", st.Classes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("class never split: %+v", c.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	shards, _ = filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if len(shards) != 0 {
		t.Fatalf("split left stale parent shards: %v", shards)
	}
}

func TestCoordinatorAdoptsDoneClassOnExpiry(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(dir, 1)
	c := mustCoordinator(t, spec, Options{TTL: 150 * time.Millisecond})

	// The worker sweeps its class fully (every DoneRecord on disk) but
	// dies before /v1/complete. The coordinator must consult the corpus on
	// expiry and adopt the class as done instead of re-issuing it. The
	// sweep is on disk before the lease is granted, so a sweep slower than
	// the TTL (a loaded machine, -race) cannot expire the lease first.
	cfg, fss, err := spec.config(Class{R: 0, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.RunMatrix(cfg, fss); err != nil {
		t.Fatal(err)
	}
	lease, err := c.lease("w-dead")
	if err != nil || lease.NoWork || lease.Class != (Class{R: 0, N: 1}) {
		t.Fatalf("lease: %+v %v", lease, err)
	}

	select {
	case <-c.DoneCh():
	case <-time.After(10 * time.Second):
		t.Fatalf("done-on-disk class never adopted: %+v", c.Status())
	}
	merged, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if row := merged.ByFS("logfs"); row == nil || row.Stats.Tested == 0 {
		t.Fatalf("adopted fleet merge lost the dead worker's sweep: %+v", row)
	}
}

func TestWorkerReleasesZombieLockedClass(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(dir, 1)
	c := mustCoordinator(t, spec, Options{TTL: 200 * time.Millisecond, SplitCap: 1})
	srv := httptest.NewServer(c)
	defer srv.Close()

	// Materialise the class's corpus shard, then hold its flock the way a
	// zombie predecessor (dead lease, live process) would.
	cfg, fss, err := spec.config(Class{R: 0, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	pre := make(chan struct{})
	close(pre)
	cfg.Interrupt = pre
	if _, err := campaign.RunMatrix(cfg, fss); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("partial run: %v", err)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(shards) != 1 {
		t.Fatalf("corpus shards: %v, %v", shards, err)
	}
	// The zombie takes a full writer open — replay, then truncate to the
	// valid prefix — which must leave this complete shard byte-identical.
	before, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	zombie, err := corpus.OpenJournal(shards[0], nil, func(*json.RawMessage) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(shards[0]); err != nil || string(after) != string(before) {
		t.Fatalf("zombie open rewrote the shard (%v)", err)
	}

	// The worker must lease the class, hit the lock, release the lease,
	// and retry — then finish normally once the zombie dies.
	w := &Worker{
		URL:            srv.URL,
		ID:             "w1",
		HeartbeatEvery: 50 * time.Millisecond,
		MaxBackoff:     200 * time.Millisecond,
		Logf:           t.Logf,
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run() }()
	time.Sleep(500 * time.Millisecond) // at least one lease→lock→release round
	zombie.Close()                     // the zombie dies; the kernel drops its lock

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("worker never finished after zombie died: %+v", c.Status())
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetEquivalenceGate is the acceptance gate from the issue: a fleet
// run that suffers one coordinator crash+restart and one worker
// death+re-issue must produce merged per-FS totals and bug groups
// identical to the unsharded single-process run — seq-1, every backend,
// reorder k=1. This extends TestShardUnionMatchesUnsharded across process
// and failure boundaries.
func TestFleetEquivalenceGate(t *testing.T) {
	names := fsmake.Names()
	if testing.Short() {
		names = []string{"logfs", "diskfmt"} // one buggy + the reference
	}
	bounds, err := ace.Profile(ace.ProfileSeq1)
	if err != nil {
		t.Fatal(err)
	}
	baseFss := make([]filesys.FileSystem, 0, len(names))
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		baseFss = append(baseFss, fs)
	}
	baseline, err := campaign.RunMatrix(campaign.Config{
		Bounds:       bounds,
		Reorder:      1,
		ProfileLabel: "seq-1",
	}, baseFss)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spec := Spec{
		Profile:   "seq-1",
		FS:        names,
		NumShards: 3,
		Reorder:   1,
		CorpusDir: dir,
	}
	// SplitCap 1 pins this test to the plain re-issue path: the re-leased
	// worker must resume the dead worker's checkpoint (splitting is
	// covered by TestWorkStealingSplitOnExpiredDemand and the refined
	// merge tests).
	opts := Options{TTL: time.Second, SplitCap: 1, Logf: t.Logf}
	c1, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}

	var handler atomic.Pointer[Coordinator]
	handler.Store(c1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Failure one: a worker leases a class, checkpoints partial progress,
	// and dies silently (no release, no further heartbeats).
	deadLease, err := c1.lease("w-dead")
	if err != nil || deadLease.NoWork {
		t.Fatalf("dead worker lease: %+v %v", deadLease, err)
	}
	dcfg, dfss, err := deadLease.Spec.config(deadLease.Class)
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	var once sync.Once
	dcfg.Interrupt = interrupt
	dcfg.CheckpointEvery = 4
	dcfg.ProgressEvery = time.Millisecond
	dcfg.OnProgress = func(campaign.Progress) { once.Do(func() { close(interrupt) }) }
	if _, err := campaign.RunMatrix(dcfg, dfss); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("dead worker partial run: %v", err)
	}

	// Failure two: the coordinator crashes and restarts. The replayed
	// lease table must be identical, including the dead worker's lease.
	before := c1.Status()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCoordinator(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	after := c2.Status()
	if !reflect.DeepEqual(before.Classes, after.Classes) {
		t.Fatalf("lease table diverged across restart:\nbefore: %+v\nafter:  %+v",
			before.Classes, after.Classes)
	}
	handler.Store(c2)

	// Two live workers drain the fleet; the dead class is re-issued after
	// its TTL and resumed from the checkpoint.
	workerErrs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = (&Worker{
				URL:            srv.URL,
				ID:             fmt.Sprintf("w%d", i+1),
				HeartbeatEvery: 100 * time.Millisecond,
				MaxBackoff:     300 * time.Millisecond,
				Logf:           t.Logf,
			}).Run()
		}(i)
	}

	type waitResult struct {
		merged *campaign.Merge
		err    error
	}
	waitCh := make(chan waitResult, 1)
	go func() {
		m, err := c2.Wait()
		waitCh <- waitResult{m, err}
	}()
	var merged *campaign.Merge
	select {
	case r := <-waitCh:
		if r.err != nil {
			t.Fatalf("fleet merge gate: %v", r.err)
		}
		merged = r.merged
	case <-time.After(10 * time.Minute):
		t.Fatalf("fleet never completed: %+v", c2.Status())
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}

	// The gate: merged per-FS totals and groups identical to the
	// unsharded run.
	for i, name := range names {
		want := baseline.PerFS[i]
		row := merged.ByFS(name)
		if row == nil {
			t.Fatalf("no merged row for %s", name)
		}
		got := row.Stats
		if got.Generated != want.Generated || got.Tested != want.Tested ||
			got.Failed != want.Failed || got.Errors != want.Errors ||
			got.StatesTotal != want.StatesTotal ||
			got.ReorderStates != want.ReorderStates ||
			got.ReorderBroken != want.ReorderBroken {
			t.Fatalf("%s diverged from unsharded:\nfleet:     gen=%d tested=%d failed=%d errors=%d states=%d rstates=%d rbroken=%d\nunsharded: gen=%d tested=%d failed=%d errors=%d states=%d rstates=%d rbroken=%d",
				name,
				got.Generated, got.Tested, got.Failed, got.Errors, got.StatesTotal, got.ReorderStates, got.ReorderBroken,
				want.Generated, want.Tested, want.Failed, want.Errors, want.StatesTotal, want.ReorderStates, want.ReorderBroken)
		}
		if len(got.Groups) != len(want.Groups) {
			t.Fatalf("%s group counts diverged: %d vs %d", name, len(got.Groups), len(want.Groups))
		}
		for j := range got.Groups {
			if got.Groups[j].Key != want.Groups[j].Key {
				t.Fatalf("%s group %d key diverged: %+v vs %+v",
					name, j, got.Groups[j].Key, want.Groups[j].Key)
			}
			if len(got.Groups[j].Reports) != len(want.Groups[j].Reports) {
				t.Fatalf("%s group %d (%v) sizes diverged: %d vs %d",
					name, j, got.Groups[j].Key, len(got.Groups[j].Reports), len(want.Groups[j].Reports))
			}
		}
	}
}
