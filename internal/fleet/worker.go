// The fleet worker: a pull-based campaign runner. It asks the coordinator
// for a lease, runs the leased residue class through campaign.RunMatrix
// (resuming any checkpoint a dead predecessor left), and keeps the lease
// alive with heartbeats carrying live progress. Every coordinator call is
// retried with jittered exponential backoff and a capped per-request
// timeout — a coordinator outage stalls the control plane, never the
// running campaign. The one unrecoverable signal is 409 Conflict: the
// lease is gone (the coordinator expired it), so the worker interrupts
// its campaign gracefully — checkpoint, no completion marker — and asks
// for new work; the re-issued class resumes from that very checkpoint.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"b3/internal/campaign"
	"b3/internal/corpus"
)

// errLeaseGone marks a 409 from the coordinator: the lease expired or
// completed under someone else. Not retryable.
var errLeaseGone = errors.New("fleet: lease is gone")

// Worker runs campaigns under coordinator leases until the fleet is
// complete.
type Worker struct {
	// URL is the coordinator base URL (http://host:port).
	URL string
	// ID names this worker in the coordinator's status table and ledger.
	ID string
	// Workers is the campaign worker-pool size (0 = GOMAXPROCS).
	Workers int
	// HeartbeatEvery overrides the heartbeat interval (0 = a third of the
	// granted TTL).
	HeartbeatEvery time.Duration
	// Interrupt, when non-nil and closed, stops the worker gracefully:
	// the running campaign checkpoints and stops without a completion
	// marker, the lease is released, and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Client overrides the HTTP client (nil = a 10s-timeout client).
	Client *http.Client
	// Logf, when non-nil, receives one line per lease transition.
	Logf func(format string, args ...any)

	// MaxBackoff caps the retry backoff (0 = 5s).
	MaxBackoff time.Duration
}

// ErrInterrupted reports a worker stopped through Worker.Interrupt. It
// aliases the campaign sentinel: both mean "checkpointed, resumable,
// deliberately unfinished".
var ErrInterrupted = campaign.ErrInterrupted

// Run pulls leases until the coordinator reports the fleet complete.
func (w *Worker) Run() error {
	for {
		if w.interrupted() {
			return ErrInterrupted
		}
		var lease LeaseResponse
		if err := w.call("/v1/lease", LeaseRequest{Worker: w.ID}, &lease); err != nil {
			return err
		}
		switch {
		case lease.Complete:
			w.logf("fleet worker %s: fleet complete", w.ID)
			return nil
		case lease.NoWork:
			if !w.sleep(time.Duration(lease.RetryMS) * time.Millisecond) {
				return ErrInterrupted
			}
			continue
		}
		if err := w.runLease(lease); err != nil {
			return err
		}
	}
}

// runLease sweeps one leased class. Outcomes:
//   - clean finish → /v1/complete (retried until acknowledged or 409)
//   - lease lost (heartbeat 409) → campaign interrupted at its next
//     generation step, checkpoint stays, loop continues
//   - shard held by a zombie predecessor → /v1/release and back off; the
//     class re-leases once the zombie's kernel lock dies with it
//   - Worker.Interrupt closed → campaign interrupted, /v1/release,
//     ErrInterrupted
func (w *Worker) runLease(lease LeaseResponse) error {
	cfg, fss, err := lease.Spec.Lower(lease.Class.R, lease.Class.N)
	if err != nil {
		// A spec the worker cannot lower is not going to improve by
		// retrying; release so another (newer?) worker can try.
		w.release(lease.Lease)
		return fmt.Errorf("fleet: spec: %w", err)
	}
	// A re-issued class continues from its predecessor's checkpoint.
	cfg.Resume = true
	w.logf("fleet worker %s: leased class %s (lease %d)", w.ID, lease.Class, lease.Lease)

	lost := make(chan struct{})
	var lostOnce sync.Once
	interrupt := make(chan struct{})
	var interruptOnce sync.Once
	closeInterrupt := func() { interruptOnce.Do(func() { close(interrupt) }) }

	// The campaign stops at the next generation step when either the
	// lease dies or the worker itself is asked to stop.
	go func() {
		select {
		case <-lost:
			closeInterrupt()
		case <-w.interruptCh():
			closeInterrupt()
		case <-interrupt:
		}
	}()

	var progress atomic.Value // Progress
	progress.Store(Progress{})
	cfg.Workers = w.Workers
	cfg.Interrupt = interrupt
	cfg.OnProgress = func(p campaign.Progress) {
		progress.Store(Progress{
			Workloads:      p.Workloads,
			States:         p.States,
			ReplayedWrites: p.ReplayedWrites,
		})
	}
	every := w.HeartbeatEvery
	if every <= 0 {
		every = time.Duration(lease.TTLMS) * time.Millisecond / 3
	}
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	cfg.ProgressEvery = every

	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				var resp HeartbeatResponse
				err := w.call("/v1/heartbeat", HeartbeatRequest{
					Lease:    lease.Lease,
					Progress: progress.Load().(Progress),
				}, &resp)
				if errors.Is(err, errLeaseGone) {
					w.logf("fleet worker %s: lease %d expired under us; abandoning class %s",
						w.ID, lease.Lease, lease.Class)
					lostOnce.Do(func() { close(lost) })
					return
				}
				// Other errors: w.call already retried with backoff; the
				// coordinator may be restarting. Keep working — the
				// checkpointed corpus makes either outcome safe.
			}
		}
	}()

	_, runErr := campaign.RunMatrix(cfg, fss)
	close(hbStop)
	<-hbDone
	closeInterrupt()

	switch {
	case runErr == nil:
		err := w.call("/v1/complete", CompleteRequest{Lease: lease.Lease}, &struct{}{})
		if err != nil && !errors.Is(err, errLeaseGone) {
			return err
		}
		if err == nil {
			w.logf("fleet worker %s: completed class %s", w.ID, lease.Class)
		}
		return nil
	case errors.Is(runErr, campaign.ErrInterrupted):
		if w.interrupted() {
			w.release(lease.Lease)
			return ErrInterrupted
		}
		// Lease lost: the class already belongs to someone else (or will
		// be re-issued); the checkpoint we just wrote is their starting
		// point. Nothing to release.
		return nil
	case errors.Is(runErr, corpus.ErrLocked):
		// A zombie predecessor still holds the class's corpus shard. Hand
		// the lease back and let the lock die with the zombie.
		w.logf("fleet worker %s: class %s shard is zombie-locked; releasing", w.ID, lease.Class)
		w.release(lease.Lease)
		if !w.sleep(time.Duration(lease.TTLMS) * time.Millisecond) {
			return ErrInterrupted
		}
		return nil
	default:
		w.release(lease.Lease)
		return fmt.Errorf("fleet worker %s: class %s: %w", w.ID, lease.Class, runErr)
	}
}

// release hands a lease back, best-effort (the coordinator's expiry makes
// a lost release harmless).
func (w *Worker) release(lease int64) {
	if err := w.call("/v1/release", ReleaseRequest{Lease: lease}, &struct{}{}); err != nil {
		w.logf("fleet worker %s: release of lease %d failed: %v", w.ID, lease, err)
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) interruptCh() <-chan struct{} { return w.Interrupt }

func (w *Worker) interrupted() bool {
	if w.Interrupt == nil {
		return false
	}
	select {
	case <-w.Interrupt:
		return true
	default:
		return false
	}
}

// sleep waits d (at least 10ms) or until interrupted; reports whether the
// wait ran its course.
func (w *Worker) sleep(d time.Duration) bool {
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	select {
	case <-time.After(d):
		return true
	case <-w.interruptCh():
		return false
	}
}

// call POSTs one JSON request, retrying transport errors and 5xx answers
// with jittered exponential backoff (capped at MaxBackoff) until it gets
// a definitive answer: 2xx (decoded into resp), 409 (errLeaseGone), or
// any other 4xx (a protocol bug, surfaced as-is). Retries stop early when
// the worker is interrupted.
func (w *Worker) call(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("fleet worker: %w", err)
	}
	client := w.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	maxBackoff := w.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	backoff := 50 * time.Millisecond
	for {
		r, err := client.Post(w.URL+path, "application/json", bytes.NewReader(body))
		if err == nil {
			status := r.StatusCode
			data, readErr := io.ReadAll(io.LimitReader(r.Body, 16<<20))
			r.Body.Close()
			switch {
			case readErr != nil:
				err = readErr // retry: truncated answer
			case status == http.StatusConflict:
				return fmt.Errorf("%w: %s", errLeaseGone, bytes.TrimSpace(data))
			case status >= 200 && status < 300:
				if resp == nil {
					return nil
				}
				return json.Unmarshal(data, resp)
			case status >= 500:
				err = fmt.Errorf("fleet worker: %s: %d %s", path, status, bytes.TrimSpace(data))
			default:
				return fmt.Errorf("fleet worker: %s: %d %s", path, status, bytes.TrimSpace(data))
			}
		}
		// Jittered exponential backoff: sleep backoff ± 50% (shared
		// math/rand source — jitter quality is irrelevant, avoiding
		// lockstep retry storms from identical workers is the point).
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		if !w.sleep(d) {
			return fmt.Errorf("fleet worker: interrupted while retrying %s: %w", path, err)
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}
