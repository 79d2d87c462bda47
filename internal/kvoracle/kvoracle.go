// Package kvoracle is the expected-state oracle for the KV workload family:
// it tracks, per persistence interval, which updates a correct store must
// have made durable (acknowledged state) and which are still in flight
// (pending ops), and classifies every recovered crash state as legal, a
// lost acknowledged write, a resurrected delete, or corrupt/unreplayable.
//
// The durability model matches kvstore's single-WAL design: a persistence
// point (sync, flush, reopen) acknowledges every update issued before it,
// and recovery on a correct file system yields the acknowledged state plus
// some in-order prefix of the pending tail — the WAL is a single
// sequential log, torn or unsynced tails drop from the end, never the
// middle. Anything outside that prefix family is a violation.
package kvoracle

import (
	"fmt"
	"sort"
	"sync"

	"b3/internal/kvace"
)

// Class is the verdict for one recovered crash state (or one key of it).
type Class uint8

const (
	// ClassLegal: the recovered state is the acknowledged state plus some
	// prefix of the pending ops.
	ClassLegal Class = iota
	// ClassLostAck: an acknowledged update is missing — the headline
	// application-level bug B3's file-level checks cannot see.
	ClassLostAck
	// ClassResurrected: an acknowledged delete came back.
	ClassResurrected
	// ClassUnreplayable: the store's durable structure did not recover
	// (bad manifest, missing table) or a recovered value was never written.
	ClassUnreplayable
	// NumClasses is the sentinel bounding the enum; not a class.
	NumClasses
)

// String returns the class label.
func (c Class) String() string {
	switch c {
	case ClassLegal:
		return "legal"
	case ClassLostAck:
		return "lost-acknowledged-write"
	case ClassResurrected:
		return "resurrected-delete"
	case ClassUnreplayable:
		return "corrupt-unreplayable"
	case NumClasses:
		return "sentinel"
	}
	return "unknown"
}

// Violation is one classified oracle failure.
type Violation struct {
	Class  Class
	Key    string
	Detail string
}

// Counts tallies recovered-state verdicts by class.
type Counts struct {
	Legal        int64
	LostAck      int64
	Resurrected  int64
	Unreplayable int64
}

// Add folds one state verdict in; the switch is total over Class.
func (c *Counts) Add(cl Class) {
	switch cl {
	case ClassLegal:
		c.Legal++
	case ClassLostAck:
		c.LostAck++
	case ClassResurrected:
		c.Resurrected++
	case ClassUnreplayable:
		c.Unreplayable++
	case NumClasses:
		// sentinel, never tallied
	}
}

// Merge folds another tally in.
func (c *Counts) Merge(o Counts) {
	c.Legal += o.Legal
	c.LostAck += o.LostAck
	c.Resurrected += o.Resurrected
	c.Unreplayable += o.Unreplayable
}

// Violations is the number of non-legal states tallied.
func (c Counts) Violations() int64 { return c.LostAck + c.Resurrected + c.Unreplayable }

// Total is the number of states tallied.
func (c Counts) Total() int64 { return c.Legal + c.Violations() }

// Expectation is the oracle for one persistence interval: crash states
// constructed between checkpoint Interval and the next checkpoint must
// recover to Ack plus some prefix of Pending. It is immutable once Build
// returns it, and safe for concurrent use: a campaign shares one workload's
// expectations between every matrix row.
type Expectation struct {
	// Interval is the 0-based persistence interval (0 = before the first
	// checkpoint, where nothing is acknowledged yet).
	Interval int
	// Ack maps each key present in the acknowledged state to its value.
	Ack map[string]string
	// Deleted marks keys whose most recent acknowledged mutation was a
	// delete — a recovered value under such a key is a resurrection.
	Deleted map[string]bool
	// Pending lists the mutation ops issued after the checkpoint, in order.
	Pending []kvace.Op

	// fp caches Fingerprint, states caches prefixStates.
	fpOnce     sync.Once
	fp         uint64
	statesOnce sync.Once
	states     []map[string]string
}

// Build derives the N+1 interval expectations of a workload from its op
// sequence (N = number of persistence points): expectation i holds the
// acknowledged state at checkpoint i and the mutations pending until
// checkpoint i+1.
func Build(ops []kvace.Op) []*Expectation {
	live := map[string]string{}
	deleted := map[string]bool{}
	clone := func() (map[string]string, map[string]bool) {
		a := make(map[string]string, len(live))
		for k, v := range live {
			a[k] = v
		}
		d := make(map[string]bool, len(deleted))
		for k := range deleted {
			d[k] = true
		}
		return a, d
	}
	ack, del := clone()
	cur := &Expectation{Interval: 0, Ack: ack, Deleted: del}
	exps := []*Expectation{cur}
	for _, op := range ops {
		switch op.Kind {
		case kvace.OpPut:
			live[op.Key] = op.Value
			delete(deleted, op.Key)
			cur.Pending = append(cur.Pending, op)
		case kvace.OpDelete:
			if _, ok := live[op.Key]; ok {
				deleted[op.Key] = true
			}
			delete(live, op.Key)
			cur.Pending = append(cur.Pending, op)
		case kvace.OpSync, kvace.OpFlush, kvace.OpReopen:
			ack, del := clone()
			cur = &Expectation{Interval: cur.Interval + 1, Ack: ack, Deleted: del}
			exps = append(exps, cur)
		case kvace.NumOpKinds:
			// sentinel, never generated
		}
	}
	return exps
}

// Fingerprint identifies the expectation for verdict caching: two crash
// states with identical disk contents under identical expectations share a
// verdict. The value is computed once and cached.
func (e *Expectation) Fingerprint() uint64 {
	e.fpOnce.Do(func() { e.fp = e.fingerprint() })
	return e.fp
}

func (e *Expectation) fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	h ^= uint64(e.Interval)
	h *= prime
	keys := make([]string, 0, len(e.Ack))
	for k := range e.Ack {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mix(k)
		mix(e.Ack[k])
	}
	dels := make([]string, 0, len(e.Deleted))
	for k := range e.Deleted {
		dels = append(dels, k)
	}
	sort.Strings(dels)
	for _, k := range dels {
		mix("†" + k)
	}
	for _, op := range e.Pending {
		mix(op.Kind.String())
		mix(op.Key)
		mix(op.Value)
	}
	return h
}

// prefixStates returns the legal state family S_0..S_m: the acknowledged
// state with each successive pending op applied. It is built once per
// expectation and shared by every Check; callers must not modify it.
func (e *Expectation) prefixStates() []map[string]string {
	e.statesOnce.Do(func() { e.states = e.buildPrefixStates() })
	return e.states
}

func (e *Expectation) buildPrefixStates() []map[string]string {
	states := make([]map[string]string, 0, len(e.Pending)+1)
	cur := make(map[string]string, len(e.Ack))
	for k, v := range e.Ack {
		cur[k] = v
	}
	states = append(states, cur)
	for _, op := range e.Pending {
		next := make(map[string]string, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		switch op.Kind {
		case kvace.OpPut:
			next[op.Key] = op.Value
		case kvace.OpDelete:
			delete(next, op.Key)
		case kvace.OpSync, kvace.OpFlush, kvace.OpReopen, kvace.NumOpKinds:
			// persistence ops and the sentinel never appear in Pending
		}
		states = append(states, next)
		cur = next
	}
	return states
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// Check classifies a recovered store against the expectation. A nil return
// means the state is legal: exactly the acknowledged state with some
// prefix of the pending ops applied. Otherwise each offending key yields
// one violation, classified per key:
//
//   - a key of the acknowledged state recovered missing or with a value
//     outside its legal sequence → lost acknowledged write;
//   - a key whose latest acknowledged mutation was a delete recovered
//     present → resurrected delete;
//   - a key recovered with a value that was never written → unreplayable
//     (fabricated contents).
//
// Per-key sets are an over-approximation of the global prefix family, so a
// state can pass every per-key check while mixing prefixes across keys;
// Check stays silent there — deliberately lenient, never a false positive.
func (e *Expectation) Check(recovered map[string]string) []Violation {
	states := e.prefixStates()
	for _, s := range states {
		if sameState(recovered, s) {
			return nil
		}
	}

	// legal per-key value sequences across the prefix family.
	legal := make(map[string]map[string]bool, len(states[0]))
	present := func(k string) bool {
		for _, s := range states {
			if _, ok := s[k]; !ok {
				return false
			}
		}
		return true
	}
	for _, s := range states {
		for k, v := range s {
			if legal[k] == nil {
				legal[k] = map[string]bool{}
			}
			legal[k][v] = true
		}
	}

	var out []Violation
	keys := make(map[string]bool, len(legal)+len(recovered))
	for k := range legal {
		keys[k] = true
	}
	for k := range recovered {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	for _, k := range sorted {
		rv, have := recovered[k]
		switch {
		case have && legal[k] != nil && legal[k][rv]:
			// value within the key's legal sequence
		case !have && !present(k):
			// absent, and absence is reachable (never acked, pending
			// delete, or acked delete)
		case !have:
			out = append(out, Violation{
				Class: ClassLostAck, Key: k,
				Detail: fmt.Sprintf("acknowledged key %q missing (interval %d, ack %q)", k, e.Interval, e.Ack[k]),
			})
		case legal[k] == nil && e.Deleted[k]:
			out = append(out, Violation{
				Class: ClassResurrected, Key: k,
				Detail: fmt.Sprintf("deleted key %q resurrected with %q (interval %d)", k, rv, e.Interval),
			})
		case legal[k] == nil:
			out = append(out, Violation{
				Class: ClassUnreplayable, Key: k,
				Detail: fmt.Sprintf("key %q recovered with fabricated value %q (interval %d)", k, rv, e.Interval),
			})
		default:
			// present with a value outside the legal sequence
			if _, acked := e.Ack[k]; acked {
				out = append(out, Violation{
					Class: ClassLostAck, Key: k,
					Detail: fmt.Sprintf("acknowledged key %q holds %q, want %q or a pending successor (interval %d)", k, rv, e.Ack[k], e.Interval),
				})
			} else if e.Deleted[k] {
				out = append(out, Violation{
					Class: ClassResurrected, Key: k,
					Detail: fmt.Sprintf("deleted key %q resurrected with stale %q (interval %d)", k, rv, e.Interval),
				})
			} else {
				out = append(out, Violation{
					Class: ClassUnreplayable, Key: k,
					Detail: fmt.Sprintf("key %q recovered with unwritten value %q (interval %d)", k, rv, e.Interval),
				})
			}
		}
	}
	return out
}

// Classify reduces a violation list to the state's primary class: the most
// severe violation wins (unreplayable > lost-ack > resurrected), and an
// empty list is legal.
func Classify(viols []Violation) Class {
	cls := ClassLegal
	rank := func(c Class) int {
		switch c {
		case ClassLegal:
			return 0
		case ClassResurrected:
			return 1
		case ClassLostAck:
			return 2
		case ClassUnreplayable:
			return 3
		case NumClasses:
			return -1
		}
		return -1
	}
	for _, v := range viols {
		if rank(v.Class) > rank(cls) {
			cls = v.Class
		}
	}
	return cls
}
