// The fleet ledger: an append-only, crash-safe journal of lease-table
// transitions. It is a corpus journal — one JSON record per line, a flock
// single-writer guard, torn-tail truncation and mid-file corruption refusal
// on open — whose binding first record is the Spec (where corpus shards
// carry a Meta), checkpointed at every append: lease transitions are rare,
// so unlike corpus records each one is durable before it takes effect.
//
// The ledger file lives in the corpus directory as "fleet.ledger" — NOT a
// .jsonl file, so corpus.LoadDir (and therefore the merge gate) never
// mistakes it for a shard.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"b3/internal/corpus"
)

// LedgerName is the journal's filename inside the corpus directory.
const LedgerName = "fleet.ledger"

// ErrSpecMismatch marks a ledger whose journaled Spec differs from the
// one the coordinator was started with: two different campaigns may not
// share a corpus directory, and silently adopting either spec would
// corrupt the other's residue accounting.
var ErrSpecMismatch = errors.New("fleet: ledger spec differs from the configured spec")

// Event is one journaled lease-table transition. Worker and Lease are
// meaningful per kind (a split has neither); TimeNS records wall-clock for
// operators reading the journal and plays no part in replay.
type Event struct {
	Kind   EventKind `json:"kind"`
	Class  Class     `json:"class"`
	Lease  int64     `json:"lease,omitempty"`
	Worker string    `json:"worker,omitempty"`
	TimeNS int64     `json:"time_ns,omitempty"`
}

// ledgerLine is the on-disk envelope: exactly one field set per line.
type ledgerLine struct {
	Spec  *Spec  `json:"spec,omitempty"`
	Event *Event `json:"event,omitempty"`
}

// Ledger is the open journal: a corpus.Journal bound by its Spec record,
// checkpointing every event. The journal is unexported so nothing outside
// OpenLedger can change that interval.
type Ledger struct{ j *corpus.Journal }

// OpenLedger opens (creating if needed) the journal under dir and returns
// the replayable event history. A fresh ledger — or one whose spec line was
// torn by a kill — journals spec as its first record; an existing one must
// carry the identical spec. The returned events are exactly the complete,
// well-formed lines on disk: a torn tail is dropped and truncated so
// appends start on a line boundary, and a corrupt earlier line fails the
// open, leaving the file untouched.
func OpenLedger(dir string, spec Spec) (*Ledger, []Event, error) {
	path := filepath.Join(dir, LedgerName)
	var (
		bound  bool
		events []Event
	)
	j, err := corpus.OpenJournal(path, ledgerLine{Spec: &spec}, func(l *ledgerLine) error {
		switch {
		case l.Spec != nil:
			if bound {
				return fmt.Errorf("fleet: ledger %s: duplicate spec record", path)
			}
			bound = true
			if diff := diffSpec(*l.Spec, spec); diff != "" {
				return fmt.Errorf("%w: %s: %s", ErrSpecMismatch, path, diff)
			}
		case !bound:
			return fmt.Errorf("fleet: ledger %s: record before the spec record", path)
		case l.Event != nil:
			events = append(events, *l.Event)
		default:
			return fmt.Errorf("fleet: ledger %s: empty ledger record", path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	j.FlushEvery = 1
	return &Ledger{j}, events, nil
}

// diffSpec names the fields where two specs differ ("" if identical).
func diffSpec(got, want Spec) string {
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if bytes.Equal(g, w) {
		return ""
	}
	return fmt.Sprintf("ledger has %s, coordinator configured %s", g, w)
}

// Path returns the ledger's file path.
func (l *Ledger) Path() string { return l.j.Path() }

// Append journals one event, durably: the write is fsynced before Append
// returns, so a transition is never acted on before it would survive a
// coordinator crash.
func (l *Ledger) Append(e Event) error {
	return l.j.Append(ledgerLine{Event: &e})
}

// Close closes the ledger, releasing its lock. Idempotent.
func (l *Ledger) Close() error { return l.j.Close() }
