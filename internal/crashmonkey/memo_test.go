package crashmonkey

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvace"
	"b3/internal/workload"
)

// clearVerified is diskfmt's test hook (diskfmt.go): it empties the
// process-wide verified-payload memo, the decoded images and log records
// kept beside the payloads included.
//
//go:linkname clearVerified b3/internal/fs/diskfmt.clearVerified
func clearVerified()

// recoveryObs is what one Mount or Fsck left behind: its error, the digest
// of the tree a mount recovered (hashIndex, the prune cache's tree tier)
// and the fingerprint of the device after the call, recovery's own writes
// included.
type recoveryObs struct {
	call, err string
	tree, dev uint64
}

// observedFS records a recoveryObs for every Mount and Fsck of the backend
// it wraps. Before each Mount it scribbles over a throwaway mount of the
// same state. When cold, it clears the memo before each call, so every
// image and log record is decoded afresh.
type observedFS struct {
	filesys.FileSystem
	cold bool
	obs  []recoveryObs
}

func (o *observedFS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	o.scribble(dev)
	if o.cold {
		clearVerified()
	}
	m, err := o.FileSystem.Mount(dev)
	ob := recoveryObs{call: "mount"}
	if err != nil {
		ob.err = err.Error()
	} else if idx, ierr := buildIndex(m); ierr != nil {
		ob.err = "index: " + ierr.Error()
	} else {
		ob.tree, ierr = hashIndex(idx)
		idx.release()
		if ierr != nil {
			ob.err = "hash: " + ierr.Error()
		}
	}
	o.record(ob, dev)
	return m, err
}

func (o *observedFS) Fsck(dev blockdev.Device) (bool, error) {
	if o.cold {
		clearVerified()
	}
	ok, err := o.FileSystem.Fsck(dev)
	ob := recoveryObs{call: fmt.Sprintf("fsck %v", ok)}
	if err != nil {
		ob.err = err.Error()
	}
	o.record(ob, dev)
	return ok, err
}

// scribble mounts a copy of dev and writes over what it recovered — the
// head of every file, an xattr on every inode, a new entry in every
// directory — then drops the mount. A backend whose in-memory tree shares a
// decoded tree or record with the memo would carry the scribbles into the
// next warm recovery of the same bytes, and only into the warm one.
func (o *observedFS) scribble(dev blockdev.Device) {
	m, err := o.FileSystem.Mount(blockdev.NewSnapshot(dev))
	if err != nil {
		return
	}
	// Errors are ignored throughout: a scribble a backend refuses changes
	// nothing.
	dirs := []string{"/"}
	for len(dirs) > 0 {
		dir := dirs[len(dirs)-1]
		dirs = dirs[:len(dirs)-1]
		ents, _ := m.ReadDir(dir)
		for _, e := range ents {
			p := joinPath(dir, e.Name)
			switch e.Kind {
			case filesys.KindDir:
				dirs = append(dirs, p)
			case filesys.KindRegular:
				_ = m.Write(p, 0, []byte("scribble"))
			case filesys.KindSymlink, filesys.KindFifo:
				// Only the xattr below.
			}
			_ = m.SetXattr(p, "user.scribble", []byte("x"))
		}
		_ = m.Create(joinPath(dir, "scribble"))
	}
}

func (o *observedFS) record(ob recoveryObs, dev blockdev.Device) {
	if s, ok := dev.(*blockdev.Snapshot); ok {
		ob.dev = s.Fingerprint()
	}
	o.obs = append(o.obs, ob)
}

// memoRun is one backend's pass over every workload: the observation of
// every recovery and one line per verdict (persistence point results and
// sweep reports, timings cleared).
type memoRun struct {
	obs      []recoveryObs
	verdicts []string
}

// runMemoPass judges every persistence point, every k=1 reorder state and
// every torn, corrupt and misdirected state of each file and KV workload on
// backend name, with no prune cache, so every state is recovered.
func runMemoPass(t *testing.T, name string, cold bool, files []*workload.Workload, kvs []*kvace.Workload) memoRun {
	fs, err := fsmake.NewBugsOnly(name)
	if err != nil {
		t.Fatal(err)
	}
	ofs := &observedFS{FileSystem: fs, cold: cold}
	mk := &Monkey{FS: ofs}
	var run memoRun
	verdict := func(id string, v any) { run.verdicts = append(run.verdicts, fmt.Sprintf("%s %+v", id, v)) }
	result := func(id string, r Result) {
		r.Workload, r.ReplayDur, r.CheckDur = nil, 0, 0
		verdict(id, r)
	}
	judge := func(id string, p *Profile) {
		defer p.Release()
		for cp := 1; cp <= p.Checkpoints(); cp++ {
			r, err := mk.TestCheckpoint(p, cp)
			if err != nil {
				t.Fatalf("%s cp %d: %v", id, cp, err)
			}
			result(id, *r)
		}
		rr, err := mk.ExploreReorder(p, 1)
		if err != nil {
			t.Fatalf("%s: reorder: %v", id, err)
		}
		verdict(id, *rr)
		fr, err := mk.ExploreFaults(p, allFaults)
		if err != nil {
			t.Fatalf("%s: faults: %v", id, err)
		}
		verdict(id, *fr)
	}
	for _, w := range files {
		p, err := mk.ProfileWorkload(w)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.ID, err)
		}
		judge(w.ID, p)
	}
	for _, w := range kvs {
		p, err := mk.ProfileKV(w)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.ID, err)
		}
		judge(w.ID, p)
	}
	run.obs = ofs.obs
	return run
}

// TestRecoveryMemoColdMatchesWarm is the gate behind keeping decoded images
// and log records beside their verified payloads: every backend recovers
// every persistence point, reorder and fault state of the seq-1 and kv-seq1
// workloads once with the memo cleared before each mount and fsck, and once
// with it warm (shared across states, workloads and both passes). Each
// recovery must leave the same error, tree digest and device fingerprint,
// and every verdict must be the same. A backend that writes through a
// shared decoded tree or record changes what a later warm mount recovers;
// a throwaway mount of each state is scribbled over first to make sure.
// (-short tests every twentieth seq-1 and every third kv-seq1 workload.)
func TestRecoveryMemoColdMatchesWarm(t *testing.T) {
	stride, kvStride := int64(1), int64(1)
	if testing.Short() {
		stride, kvStride = 20, 3
	}
	var files []*workload.Workload
	var n int64
	if _, err := ace.New(ace.Default(1)).Generate(func(w *workload.Workload) bool {
		if n++; n%stride == 0 {
			files = append(files, w)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	kvs := kvWorkloads(t, "kv-seq1", func(seq int64) bool { return seq%kvStride == 0 })
	for _, name := range fsmake.Names() {
		t.Run(name, func(t *testing.T) {
			cold := runMemoPass(t, name, true, files, kvs)
			warm := runMemoPass(t, name, false, files, kvs)
			if len(cold.obs) != len(warm.obs) {
				t.Fatalf("cold memo: %d recoveries, warm: %d", len(cold.obs), len(warm.obs))
			}
			for i := range cold.obs {
				if cold.obs[i] != warm.obs[i] {
					t.Fatalf("recovery %d: cold memo %+v, warm %+v", i, cold.obs[i], warm.obs[i])
				}
			}
			if len(cold.verdicts) != len(warm.verdicts) {
				t.Fatalf("cold memo: %d verdicts, warm: %d", len(cold.verdicts), len(warm.verdicts))
			}
			for i := range cold.verdicts {
				if cold.verdicts[i] != warm.verdicts[i] {
					t.Fatalf("verdict %d:\ncold memo %s\nwarm      %s", i, cold.verdicts[i], warm.verdicts[i])
				}
			}
		})
	}
}
