// The fleet coordinator: owner of the residue-class lease table. All
// state transitions are journaled to the ledger *before* they take effect
// in memory (write-ahead), so the in-memory table is always reproducible
// by replay — TestCoordinatorRestart holds the coordinator to exactly
// that.
//
// Lease lifecycle (per class):
//
//	pending ── grant ──▶ leased ── complete ──▶ done
//	   ▲                   │ heartbeat (renews deadline)
//	   │                   │
//	   ├──── expire ◀──────┤  missed deadline; corpus DoneRecords are
//	   │                   │  consulted first — a fully-swept class is
//	   │                   │  adopted as done instead of re-issued
//	   └──── release ◀─────┘  worker's own request (shutdown, zombie shard)
//
//	pending ── split (under recorded demand) ──▶ two pending children
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"b3/internal/campaign"
	"b3/internal/corpus"
	"b3/internal/report"
)

// DefaultLeaseTTL is the heartbeat deadline granted with each lease.
const DefaultLeaseTTL = 10 * time.Second

// DefaultSplitCap bounds work-stealing refinement: a class is never split
// beyond modulus DefaultSplitCap × Spec.NumShards. Splitting discards the
// class's partial checkpoints, so unbounded refinement under a flapping
// worker could thrash away more progress than it steals.
const DefaultSplitCap = 16

// Options tunes a Coordinator.
type Options struct {
	// TTL is the lease deadline (0 = DefaultLeaseTTL). Heartbeats and
	// grants re-arm it.
	TTL time.Duration
	// SplitCap overrides the refinement bound multiplier (0 = default).
	SplitCap int
	// KnownDBFor, when non-nil, dedups merged bug groups against the §5.3
	// known-bug database at fleet completion.
	KnownDBFor func(fsName string) *report.KnownDB
	// Logf, when non-nil, receives one line per lease transition.
	Logf func(format string, args ...any)
}

// classInfo is one lease-table row plus its volatile (non-journaled)
// deadline and progress.
type classInfo struct {
	class    Class
	state    LeaseState
	lease    int64
	worker   string
	deadline time.Time
	progress Progress
}

// Coordinator owns the lease table and serves the worker pull protocol.
type Coordinator struct {
	spec Spec
	opts Options

	mu        sync.Mutex
	ledger    *Ledger
	classes   map[Class]*classInfo
	nextLease int64
	demand    bool // a worker asked for work and got nothing
	merged    *campaign.Merge
	mergeErr  error
	done      chan struct{}
	closed    bool

	tickStop chan struct{}
	tickDone chan struct{}
}

// NewCoordinator opens (or replays) the ledger under spec.CorpusDir and
// starts the expiry clock. Leases that were live when a previous
// coordinator died are preserved with their ids — their workers' next
// heartbeats land normally — and their deadlines re-armed from now.
func NewCoordinator(spec Spec, opts Options) (*Coordinator, error) {
	if err := validate(spec); err != nil {
		return nil, err
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultLeaseTTL
	}
	if opts.SplitCap <= 0 {
		opts.SplitCap = DefaultSplitCap
	}
	ledger, events, err := OpenLedger(spec.CorpusDir, spec)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		spec:      spec,
		opts:      opts,
		ledger:    ledger,
		classes:   make(map[Class]*classInfo),
		nextLease: 1,
		done:      make(chan struct{}),
		tickStop:  make(chan struct{}),
		tickDone:  make(chan struct{}),
	}
	for i := 0; i < spec.NumShards; i++ {
		cl := Class{R: i, N: spec.NumShards}
		c.classes[cl] = &classInfo{class: cl, state: StatePending}
	}
	for _, e := range events {
		if err := c.apply(e); err != nil {
			ledger.Close()
			return nil, fmt.Errorf("fleet: ledger %s: %w", ledger.Path(), err)
		}
	}
	deadline := time.Now().Add(opts.TTL)
	for _, ci := range c.classes {
		if ci.state == StateLeased {
			ci.deadline = deadline
		}
	}
	if c.allDone() {
		c.finish()
	}
	go c.tick()
	return c, nil
}

// apply replays one journaled event onto the in-memory table, validating
// the transition: an event the live coordinator could not have journaled
// means the ledger was edited or mixed and is not trustworthy.
func (c *Coordinator) apply(e Event) error {
	ci := c.classes[e.Class]
	if ci == nil {
		return fmt.Errorf("%s event for unknown class %s", e.Kind, e.Class)
	}
	switch e.Kind {
	case EventGrant:
		if ci.state != StatePending {
			return fmt.Errorf("grant of %s class %s", ci.state, e.Class)
		}
		ci.state, ci.lease, ci.worker = StateLeased, e.Lease, e.Worker
		if e.Lease >= c.nextLease {
			c.nextLease = e.Lease + 1
		}
	case EventComplete:
		if ci.state != StateLeased || ci.lease != e.Lease {
			return fmt.Errorf("complete of %s class %s under lease %d", ci.state, e.Class, e.Lease)
		}
		ci.state = StateDone
	case EventExpire, EventRelease:
		if ci.state != StateLeased || ci.lease != e.Lease {
			return fmt.Errorf("%s of %s class %s under lease %d", e.Kind, ci.state, e.Class, e.Lease)
		}
		ci.state, ci.lease, ci.worker = StatePending, 0, ""
		ci.progress = Progress{}
	case EventSplit:
		if ci.state != StatePending {
			return fmt.Errorf("split of %s class %s", ci.state, e.Class)
		}
		delete(c.classes, e.Class)
		a, b := e.Class.Split()
		c.classes[a] = &classInfo{class: a, state: StatePending}
		c.classes[b] = &classInfo{class: b, state: StatePending}
	default:
		return fmt.Errorf("unknown event kind %d", int(e.Kind))
	}
	return nil
}

// journal write-ahead: the event is durable before apply mutates the
// table, so a crash between the two replays to the post-event state and
// nothing is lost; a crash before the append replays to the pre-event
// state and the transition simply never happened.
func (c *Coordinator) journal(e Event) error {
	e.TimeNS = time.Now().UnixNano()
	if err := c.ledger.Append(e); err != nil {
		return err
	}
	if err := c.apply(e); err != nil {
		return fmt.Errorf("fleet: journaled an invalid transition: %w", err)
	}
	c.logf("fleet: %s %s lease=%d worker=%s", e.Kind, e.Class, e.Lease, e.Worker)
	return nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// tick drives lazy expiry even when no requests arrive (the whole fleet
// may be dead — the coordinator must still expire, re-issue, and
// eventually notice adoption-completed classes).
func (c *Coordinator) tick() {
	defer close(c.tickDone)
	interval := c.opts.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.tickStop:
			return
		case <-t.C:
			c.mu.Lock()
			c.expireOverdue()
			c.mu.Unlock()
		}
	}
}

// expireOverdue (mu held) expires every leased class whose deadline
// passed. Before re-issuing, the corpus is consulted: a class whose every
// backend shard already carries a DoneRecord was finished by the dead
// worker (it died after its final checkpoint, before /v1/complete) and is
// adopted as complete. Otherwise, under recorded work-stealing demand and
// below the split cap, the freed class is split so the next two lease
// requests each get half; else it is re-issued whole and the successor
// resumes the dead worker's checkpoint.
func (c *Coordinator) expireOverdue() {
	if c.closed {
		return
	}
	now := time.Now()
	for _, ci := range c.sorted() {
		if ci.state != StateLeased || now.Before(ci.deadline) {
			continue
		}
		lease := ci.lease
		if c.classDoneOnDisk(ci.class) {
			if err := c.journal(Event{Kind: EventComplete, Class: ci.class, Lease: lease, Worker: "(adopted)"}); err != nil {
				c.logf("fleet: ledger append failed: %v", err)
				return
			}
			continue
		}
		if err := c.journal(Event{Kind: EventExpire, Class: ci.class, Lease: lease}); err != nil {
			c.logf("fleet: ledger append failed: %v", err)
			return
		}
		c.maybeSplit(ci.class)
	}
	if c.allDone() {
		c.finish()
	}
}

// maybeSplit (mu held) refines a just-freed pending class when demand was
// recorded and the cap allows. The class's partial corpus shards are
// removed first: the children re-sweep the whole class, and a stale
// partial parent shard would make the directory unmergeable.
func (c *Coordinator) maybeSplit(cl Class) {
	if !c.demand || cl.N*2 > c.opts.SplitCap*c.spec.NumShards {
		return
	}
	if err := c.removeClassShards(cl); err != nil {
		c.logf("fleet: not splitting %s: %v", cl, err)
		return
	}
	if err := c.journal(Event{Kind: EventSplit, Class: cl}); err != nil {
		c.logf("fleet: ledger append failed: %v", err)
		return
	}
	c.demand = false
}

// removeClassShards deletes every corpus shard recorded for the class.
// Shards are matched by their journaled Meta (not filename parsing), so
// the coupling to corpus naming stays semantic.
func (c *Coordinator) removeClassShards(cl Class) error {
	shards, err := corpus.LoadDir(c.spec.CorpusDir)
	if err != nil {
		return err
	}
	wantN := cl.N
	if wantN == 1 {
		wantN = 0 // unsharded shards record NumShards 0
	}
	for _, s := range shards {
		if s.Meta.Shard == cl.R && s.Meta.NumShards == wantN {
			if err := os.Remove(s.Path); err != nil {
				return err
			}
		}
	}
	return nil
}

// classDoneOnDisk (mu held) reports whether every spec backend's corpus
// shard for the class exists and carries a completion marker.
func (c *Coordinator) classDoneOnDisk(cl Class) bool {
	_, fss, err := c.spec.Lower(0, 0)
	if err != nil {
		return false
	}
	shards, err := corpus.LoadDir(c.spec.CorpusDir)
	if err != nil {
		// An unreadable directory (or a corrupt shard) must never adopt a
		// class as complete; re-issue and let the worker's Resume decide.
		return false
	}
	doneFS := map[string]bool{}
	for _, s := range shards {
		wantN := cl.N
		if wantN == 1 {
			wantN = 0 // unsharded shards record NumShards 0
		}
		if s.Meta.Shard == cl.R && s.Meta.NumShards == wantN && s.Done != nil {
			doneFS[s.Meta.FS] = true
		}
	}
	for _, fs := range fss {
		if !doneFS[fs.Name()] {
			return false
		}
	}
	return true
}

// sorted (mu held) returns the table rows in deterministic (n, r) order.
func (c *Coordinator) sorted() []*classInfo {
	rows := make([]*classInfo, 0, len(c.classes))
	for _, ci := range c.classes {
		rows = append(rows, ci)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].class.N != rows[j].class.N {
			return rows[i].class.N < rows[j].class.N
		}
		return rows[i].class.R < rows[j].class.R
	})
	return rows
}

func (c *Coordinator) allDone() bool {
	for _, ci := range c.classes {
		if ci.state != StateDone {
			return false
		}
	}
	return true
}

// finish (mu held, all classes done) folds the shard corpora through the
// merge gate and signals Wait. The merge's residue exact-cover check is
// the end-to-end soundness gate: if the fleet's bookkeeping and the disk
// disagree, this errors rather than reporting a partial sweep as whole.
func (c *Coordinator) finish() {
	select {
	case <-c.done:
		return // already finished
	default:
	}
	c.merged, c.mergeErr = campaign.MergeDir(c.spec.CorpusDir, c.opts.KnownDBFor)
	close(c.done)
}

// Wait blocks until every class is done and returns the merged fleet
// report (or the merge-gate error).
func (c *Coordinator) Wait() (*campaign.Merge, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged, c.mergeErr
}

// DoneCh is closed when the fleet completes (select-friendly Wait).
func (c *Coordinator) DoneCh() <-chan struct{} { return c.done }

// Close stops the expiry clock and releases the ledger. It does not
// disturb the lease table: a Close+NewCoordinator pair is exactly the
// crash+restart the ledger exists for.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.tickStop)
	<-c.tickDone
	return c.ledger.Close()
}

// Status snapshots the lease table.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Spec: c.spec}
	for _, ci := range c.sorted() {
		row := ClassStatus{Class: ci.class, State: ci.state}
		switch ci.state {
		case StateLeased:
			row.Lease, row.Worker = ci.lease, ci.worker
			st.Leased++
			st.Progress.Workloads += ci.progress.Workloads
			st.Progress.States += ci.progress.States
			st.Progress.ReplayedWrites += ci.progress.ReplayedWrites
		case StatePending:
			st.Pending++
		case StateDone:
			st.Done++
		}
		st.Classes = append(st.Classes, row)
	}
	select {
	case <-c.done:
		st.Complete = true
	default:
	}
	return st
}

// lease grants the first pending class (deterministic order) or reports
// no-work/complete. A no-work answer records work-stealing demand: the
// next class freed by expiry or release will be split rather than
// re-issued whole.
func (c *Coordinator) lease(worker string) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireOverdue()
	select {
	case <-c.done:
		return LeaseResponse{Complete: true}, nil
	default:
	}
	for _, ci := range c.sorted() {
		if ci.state != StatePending {
			continue
		}
		id := c.nextLease
		if err := c.journal(Event{Kind: EventGrant, Class: ci.class, Lease: id, Worker: worker}); err != nil {
			return LeaseResponse{}, err
		}
		ci.deadline = time.Now().Add(c.opts.TTL)
		return LeaseResponse{
			Lease: id,
			Class: ci.class,
			TTLMS: c.opts.TTL.Milliseconds(),
			Spec:  c.spec,
		}, nil
	}
	c.demand = true
	retry := c.opts.TTL / 2
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	return LeaseResponse{NoWork: true, RetryMS: retry.Milliseconds()}, nil
}

// findLease (mu held) returns the class currently held under the lease id
// (nil if the lease expired, completed, or never existed — all
// indistinguishable to the caller, and deliberately so).
func (c *Coordinator) findLease(id int64) *classInfo {
	if id == 0 {
		return nil
	}
	for _, ci := range c.classes {
		if ci.state == StateLeased && ci.lease == id {
			return ci
		}
	}
	return nil
}

// heartbeat renews a live lease's deadline and records progress.
func (c *Coordinator) heartbeat(req HeartbeatRequest) (HeartbeatResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireOverdue()
	ci := c.findLease(req.Lease)
	if ci == nil {
		return HeartbeatResponse{}, false
	}
	ci.deadline = time.Now().Add(c.opts.TTL)
	ci.progress = req.Progress
	return HeartbeatResponse{TTLMS: c.opts.TTL.Milliseconds()}, true
}

// complete marks a leased class done.
func (c *Coordinator) complete(req CompleteRequest) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireOverdue()
	ci := c.findLease(req.Lease)
	if ci == nil {
		return false, nil
	}
	if err := c.journal(Event{Kind: EventComplete, Class: ci.class, Lease: ci.lease, Worker: ci.worker}); err != nil {
		return false, err
	}
	if c.allDone() {
		c.finish()
	}
	return true, nil
}

// release returns a leased class to pending at the worker's request.
// Idempotent: releasing a lease that already expired is a no-op success.
func (c *Coordinator) release(req ReleaseRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ci := c.findLease(req.Lease)
	if ci == nil {
		return nil
	}
	if err := c.journal(Event{Kind: EventRelease, Class: ci.class, Lease: ci.lease}); err != nil {
		return err
	}
	c.maybeSplit(ci.class)
	return nil
}

// ServeHTTP implements the pull protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/lease":
		var req LeaseRequest
		if !decodePost(w, r, &req) {
			return
		}
		resp, err := c.lease(req.Worker)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, resp)
	case "/v1/heartbeat":
		var req HeartbeatRequest
		if !decodePost(w, r, &req) {
			return
		}
		resp, ok := c.heartbeat(req)
		if !ok {
			http.Error(w, fmt.Sprintf("lease %d is gone", req.Lease), http.StatusConflict)
			return
		}
		writeJSON(w, resp)
	case "/v1/complete":
		var req CompleteRequest
		if !decodePost(w, r, &req) {
			return
		}
		ok, err := c.complete(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, fmt.Sprintf("lease %d is gone", req.Lease), http.StatusConflict)
			return
		}
		writeJSON(w, struct{}{})
	case "/v1/release":
		var req ReleaseRequest
		if !decodePost(w, r, &req) {
			return
		}
		if err := c.release(req); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct{}{})
	case "/v1/status":
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, c.Status())
	default:
		http.NotFound(w, r)
	}
}

func decodePost(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
