package blockdev

import (
	"bytes"
	"fmt"
	"testing"
)

// testLog builds a Record stream from a compact spec: "w<block>" appends a
// write of one block (payload derived from the spec position so every write
// is distinguishable), "F" a flush, "C" a checkpoint.
func testLog(spec ...string) []Record {
	var log []Record
	seq := int64(0)
	cps := 0
	for i, s := range spec {
		seq++
		switch s[0] {
		case 'w':
			var block int64
			fmt.Sscanf(s[1:], "%d", &block)
			data := bytes.Repeat([]byte{byte(i + 1)}, 16)
			log = append(log, Record{Seq: seq, Kind: RecWrite, Block: block, Data: data})
		case 'F':
			log = append(log, Record{Seq: seq, Kind: RecFlush})
		case 'C':
			cps++
			log = append(log, Record{Seq: seq, Kind: RecCheckpoint, Checkpoint: cps})
		default:
			panic("bad spec " + s)
		}
	}
	return log
}

func epochShape(eps []Epoch) []int {
	out := make([]int, len(eps))
	for i, e := range eps {
		out[i] = len(e.Writes)
	}
	return out
}

func TestEpochPartition(t *testing.T) {
	cases := []struct {
		name   string
		spec   []string
		shape  []int
		closed []bool
		cps    []int // Checkpoints: persistence points completed before each epoch
	}{
		{"flush-delimited", []string{"w0", "w1", "F", "w2", "F"},
			[]int{2, 1}, []bool{true, true}, []int{0, 0}},
		{"checkpoint-closes-too", []string{"w0", "C", "w1", "F"},
			[]int{1, 1}, []bool{true, true}, []int{0, 1}},
		{"open-tail", []string{"w0", "F", "w1", "w2"},
			[]int{1, 2}, []bool{true, false}, []int{0, 0}},
		{"no-empty-epochs", []string{"F", "w0", "F", "C", "F", "w1"},
			[]int{1, 1}, []bool{true, false}, []int{0, 1}},
		{"writeless", []string{"F", "C"}, []int{}, []bool{}, []int{}},
		// Checkpoints with no writes between them open no epoch but still
		// advance the interval of the next one.
		{"empty-epochs-between-checkpoints", []string{"w0", "C", "C", "F", "C", "w1", "C"},
			[]int{1, 1}, []bool{true, true}, []int{0, 3}},
		{"open-tail-after-checkpoints", []string{"C", "w0", "C", "w1", "w2"},
			[]int{1, 2}, []bool{true, false}, []int{1, 2}},
		// A flush closes the epoch without completing a persistence point.
		{"flush-only-barriers", []string{"w0", "C", "w1", "F", "w2", "F", "w3"},
			[]int{1, 1, 1, 1}, []bool{true, true, true, false}, []int{0, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eps := Epochs(testLog(tc.spec...))
			if len(eps) != len(tc.shape) {
				t.Fatalf("got %d epochs %v, want %v", len(eps), epochShape(eps), tc.shape)
			}
			for i, e := range eps {
				if e.Index != i {
					t.Fatalf("epoch %d has Index %d", i, e.Index)
				}
				if len(e.Writes) != tc.shape[i] {
					t.Fatalf("epoch %d holds %d writes, want %d", i, len(e.Writes), tc.shape[i])
				}
				if e.Closed != tc.closed[i] {
					t.Fatalf("epoch %d Closed=%t, want %t", i, e.Closed, tc.closed[i])
				}
				if e.Checkpoints != tc.cps[i] {
					t.Fatalf("epoch %d Checkpoints=%d, want %d", i, e.Checkpoints, tc.cps[i])
				}
			}
		})
	}
}

// TestCheckpointIsReorderBarrier is the regression for the mid-op barrier
// bug: with only RecFlush treated as a barrier, a write could be dropped
// past the RecCheckpoint that persisted it — a state no real device can
// expose (the persistence call returned, so the write is durable). An
// fsync-heavy stream where the file system forgot the explicit flush must
// never yield a state holding a later epoch's write without the
// checkpointed one.
func TestCheckpointIsReorderBarrier(t *testing.T) {
	// fsync persists block 0 (checkpoint, no flush — the omission is the
	// point), then block 1 is written and still in flight.
	log := testLog("w0", "C", "w1")
	for _, k := range []int{0, 1, 2} {
		ForEachReorderState(log, k, func(st ReorderState, apply func(Device) error) bool {
			dst := NewMemDisk(4)
			if err := apply(dst); err != nil {
				t.Fatal(err)
			}
			b0, _ := dst.ReadBlock(0)
			b1, _ := dst.ReadBlock(1)
			zero := make([]byte, BlockSize)
			if !bytes.Equal(b1, zero) && bytes.Equal(b0, zero) {
				t.Fatalf("k=%d state %s applies the in-flight write but drops the checkpointed one", k, st.Desc)
			}
			return true
		})
	}
}

func TestReorderK0IsExactlyThePrefixRow(t *testing.T) {
	log := testLog("w0", "w1", "F", "w2", "C", "w3", "w4")
	writes := 0
	for _, rec := range log {
		if rec.Kind == RecWrite {
			writes++
		}
	}
	var got []uint64
	ForEachReorderState(log, 0, func(st ReorderState, apply func(Device) error) bool {
		if st.Dropped != nil {
			t.Fatalf("k=0 yielded drop state %s", st.Desc)
		}
		dst := NewSnapshot(NewMemDisk(8))
		if err := apply(dst); err != nil {
			t.Fatal(err)
		}
		got = append(got, dst.Fingerprint())
		return true
	})
	if len(got) != writes+1 {
		t.Fatalf("k=0 yielded %d states, want %d (every write prefix)", len(got), writes+1)
	}
	for n := 0; n <= writes; n++ {
		dst := NewSnapshot(NewMemDisk(8))
		if _, err := ReplayPrefix(dst, log, n); err != nil {
			t.Fatal(err)
		}
		if got[n] != dst.Fingerprint() {
			t.Fatalf("k=0 state %d differs from ReplayPrefix(%d)", n, n)
		}
	}
}

func TestReorderStateCountMatchesEnumeration(t *testing.T) {
	logs := [][]Record{
		testLog("w0", "w1", "w2", "F", "w3", "w4", "C", "w5"),
		testLog("w0", "F"),
		testLog("F", "C"),
		testLog("w0", "w1", "w2", "w3"),
	}
	for li, log := range logs {
		for k := 0; k <= 3; k++ {
			n := 0
			ForEachReorderState(log, k, func(ReorderState, func(Device) error) bool {
				n++
				return true
			})
			want, err := ReorderStateCount(log, k)
			if err != nil {
				t.Fatal(err)
			}
			if int64(n) != want {
				t.Fatalf("log %d k=%d: enumerated %d states, ReorderStateCount says %d",
					li, k, n, want)
			}
		}
	}
	// A writeless log still has its one (empty) crash state.
	if got, err := ReorderStateCount(testLog("F", "C"), 2); err != nil || got != 1 {
		t.Fatalf("writeless log: %d states (err %v), want 1", got, err)
	}
}

// TestReorderK1MatchesLegacySweep pins the compatibility contract: at k=1
// the engine enumerates exactly the legacy mid-op space — every write
// prefix plus, per epoch, the full epoch with each single write dropped.
func TestReorderK1MatchesLegacySweep(t *testing.T) {
	log := testLog("w0", "w1", "F", "w2", "w3", "w4", "C", "w5")
	eps := Epochs(log)
	writes := 0
	dropStates := 0
	for _, e := range eps {
		writes += len(e.Writes)
		dropStates += len(e.Writes)
	}
	var descs []string
	ForEachReorderState(log, 1, func(st ReorderState, _ func(Device) error) bool {
		if st.Dropped != nil && len(st.Dropped) != 1 {
			t.Fatalf("k=1 dropped %d writes in %s", len(st.Dropped), st.Desc)
		}
		descs = append(descs, st.Desc)
		return true
	})
	if len(descs) != writes+1+dropStates {
		t.Fatalf("k=1 yielded %d states, want %d prefixes + %d drops",
			len(descs), writes+1, dropStates)
	}
	// Determinism: a second enumeration is identical.
	i := 0
	ForEachReorderState(log, 1, func(st ReorderState, _ func(Device) error) bool {
		if descs[i] != st.Desc {
			t.Fatalf("state %d: %s then %s", i, descs[i], st.Desc)
		}
		i++
		return true
	})
}

func TestReorderEnumerationStopsEarly(t *testing.T) {
	log := testLog("w0", "w1", "w2", "F")
	n := 0
	ForEachReorderState(log, 3, func(ReorderState, func(Device) error) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("callback false did not stop the sweep: %d states", n)
	}
}
