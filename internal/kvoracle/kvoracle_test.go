package kvoracle

import (
	"fmt"
	"sync"
	"testing"

	"b3/internal/kvace"
)

func ops(t *testing.T, spec ...kvace.Op) []kvace.Op { t.Helper(); return spec }

func put(k, v string) kvace.Op { return kvace.Op{Kind: kvace.OpPut, Key: k, Value: v} }
func del(k string) kvace.Op    { return kvace.Op{Kind: kvace.OpDelete, Key: k} }
func syncOp() kvace.Op         { return kvace.Op{Kind: kvace.OpSync} }

func TestBuildIntervals(t *testing.T) {
	exps := Build(ops(t, put("a", "1"), syncOp(), del("a"), put("b", "2"), syncOp()))
	if len(exps) != 3 {
		t.Fatalf("Build yielded %d expectations, want 3", len(exps))
	}
	// Interval 0: nothing acknowledged, put(a) pending.
	if len(exps[0].Ack) != 0 || len(exps[0].Pending) != 1 {
		t.Fatalf("interval 0: ack %v pending %v", exps[0].Ack, exps[0].Pending)
	}
	// Interval 1: a=1 acknowledged; delete+put pending.
	if exps[1].Ack["a"] != "1" || len(exps[1].Pending) != 2 {
		t.Fatalf("interval 1: ack %v pending %v", exps[1].Ack, exps[1].Pending)
	}
	// Interval 2: a deleted (tombstone remembered), b=2 acknowledged.
	if _, ok := exps[2].Ack["a"]; ok {
		t.Fatal("interval 2 still acknowledges a")
	}
	if !exps[2].Deleted["a"] || exps[2].Ack["b"] != "2" {
		t.Fatalf("interval 2: ack %v deleted %v", exps[2].Ack, exps[2].Deleted)
	}
}

func TestCheckAcceptsPrefixFamily(t *testing.T) {
	exps := Build(ops(t, put("a", "1"), syncOp(), put("a", "2"), put("b", "3"), syncOp()))
	e := exps[1] // ack {a:1}, pending [put a=2, put b=3]
	legal := []map[string]string{
		{"a": "1"},           // S0: nothing pending landed
		{"a": "2"},           // S1: first pending applied
		{"a": "2", "b": "3"}, // S2: both applied
	}
	for i, st := range legal {
		if v := e.Check(st); v != nil {
			t.Fatalf("legal prefix S%d rejected: %v", i, v)
		}
	}
}

func TestCheckClassifiesLostAck(t *testing.T) {
	exps := Build(ops(t, put("a", "1"), put("b", "2"), syncOp(), syncOp()))
	e := exps[1]
	viols := e.Check(map[string]string{"b": "2"}) // a vanished
	if len(viols) != 1 || viols[0].Class != ClassLostAck || viols[0].Key != "a" {
		t.Fatalf("missing acknowledged key: %v", viols)
	}
	// A stale value outside the legal sequence is also a lost write.
	viols = e.Check(map[string]string{"a": "0", "b": "2"})
	if len(viols) != 1 || viols[0].Class != ClassLostAck {
		t.Fatalf("stale acknowledged value: %v", viols)
	}
}

func TestCheckClassifiesResurrectedDelete(t *testing.T) {
	exps := Build(ops(t, put("a", "1"), syncOp(), del("a"), syncOp(), syncOp()))
	e := exps[2] // a acknowledged-deleted
	viols := e.Check(map[string]string{"a": "1"})
	if len(viols) != 1 || viols[0].Class != ClassResurrected {
		t.Fatalf("resurrected delete: %v", viols)
	}
}

func TestCheckClassifiesFabricatedValue(t *testing.T) {
	exps := Build(ops(t, put("a", "1"), syncOp(), syncOp()))
	e := exps[1]
	viols := e.Check(map[string]string{"a": "1", "zz": "never-written"})
	if len(viols) != 1 || viols[0].Class != ClassUnreplayable {
		t.Fatalf("fabricated key: %v", viols)
	}
}

func TestCheckPendingDeleteAllowsAbsence(t *testing.T) {
	exps := Build(ops(t, put("a", "1"), syncOp(), del("a"), syncOp()))
	e := exps[1] // ack {a:1}, pending [del a]
	if v := e.Check(map[string]string{}); v != nil {
		t.Fatalf("pending delete's absence rejected: %v", v)
	}
	if v := e.Check(map[string]string{"a": "1"}); v != nil {
		t.Fatalf("pre-delete state rejected: %v", v)
	}
}

func TestCountsAndClassify(t *testing.T) {
	var c Counts
	for _, cl := range []Class{ClassLegal, ClassLegal, ClassLostAck, ClassResurrected, ClassUnreplayable} {
		c.Add(cl)
	}
	if c.Legal != 2 || c.LostAck != 1 || c.Resurrected != 1 || c.Unreplayable != 1 {
		t.Fatalf("counts drifted: %+v", c)
	}
	if c.Violations() != 3 || c.Total() != 5 {
		t.Fatalf("aggregates drifted: %+v", c)
	}
	var d Counts
	d.Merge(c)
	d.Merge(c)
	if d.Total() != 10 {
		t.Fatalf("merge drifted: %+v", d)
	}
	got := Classify([]Violation{{Class: ClassResurrected}, {Class: ClassUnreplayable}, {Class: ClassLostAck}})
	if got != ClassUnreplayable {
		t.Fatalf("Classify ranked %v first", got)
	}
	if Classify(nil) != ClassLegal {
		t.Fatal("empty violation list not legal")
	}
}

func TestFingerprintSeparatesExpectations(t *testing.T) {
	a := Build(ops(t, put("a", "1"), syncOp()))
	b := Build(ops(t, put("a", "2"), syncOp()))
	if a[0].Fingerprint() == b[0].Fingerprint() {
		t.Fatal("different pending values share a fingerprint")
	}
	if a[0].Fingerprint() == a[1].Fingerprint() {
		t.Fatal("different intervals share a fingerprint")
	}
	c := Build(ops(t, put("a", "1"), syncOp()))
	if a[0].Fingerprint() != c[0].Fingerprint() {
		t.Fatal("identical expectations fingerprint apart")
	}
}

// TestSharedExpectationIsSafe: a campaign shares one Build result between
// every matrix row, so Fingerprint and Check — and the caches behind them —
// must be safe to call from many goroutines at once on the same
// expectation. Run under -race; every goroutine must also see the values a
// fresh, unshared Build gives.
func TestSharedExpectationIsSafe(t *testing.T) {
	spec := ops(t, put("a", "1"), syncOp(), put("a", "2"), del("b"), put("c", "3"), syncOp(), del("a"), syncOp())
	shared, fresh := Build(spec), Build(spec)
	recovered := []map[string]string{
		{"a": "1"},           // legal: nothing pending landed
		{"a": "2", "c": "3"}, // legal at interval 1
		{"c": "3"},           // lost ack before interval 2
		{"a": "9"},           // unwritten value
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, e := range shared {
				if e.Fingerprint() != fresh[i].Fingerprint() {
					errs <- fmt.Sprintf("interval %d: shared fingerprint drifted", i)
					return
				}
				for _, st := range recovered {
					if got, want := Classify(e.Check(st)), Classify(fresh[i].Check(st)); got != want {
						errs <- fmt.Sprintf("interval %d: shared Check says %v, fresh %v", i, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
