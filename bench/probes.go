package main

import (
	"fmt"
	"time"

	"b3"
	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/crashmonkey"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/kvstore"
	"b3/internal/workload"
)

// probeStride picks every 16th class member for the bare-call probes.
const probeStride = 16

// probeSet accumulates bare-call timings across probe workloads.
type probeSet struct {
	cursorNS, cursorStates   int64
	reorderNS, reorderStates int64
	faultNS, faultStates     int64
	fpNS, fpBlocks           int64
	mkfsUS, mountUS          []float64
	buildUS                  []float64
	checkNS, checks          int64
}

// probeLayers measures the layers the traced pass can only see from
// outside — blockdev's cursor and enumerators, the backends' mkfs and
// recovery mount, kvstore and kvoracle — with bare calls over the recorded
// write log of every probeStride-th workload of the class, single-threaded
// and with a no-op consumer, so the numbers are the layer's own cost
// without recovery or the oracle behind it.
func probeLayers(spec passSpec, c b3.Campaign, rows []*tracedRow, layers map[string]float64) error {
	def := spec.Def
	t := time.Now()
	files, kvs, generated, err := probeWorkloads(def, c)
	if err != nil {
		return err
	}
	// The probe's own enumeration, alone on the machine, is the
	// generator's cost; the campaign pays it once per matrix row.
	enumS := time.Since(t).Seconds()
	if def.isKV() {
		layers["kvace.enumerate_s"] = enumS * float64(len(rows))
	} else {
		layers["ace.enumerate_s"] = enumS * float64(len(rows))
		layers["ace.ns_per_enumerated"] = ratio(enumS*1e9, float64(generated))
	}
	var ps probeSet
	for _, row := range rows {
		mk := &crashmonkey.Monkey{FS: row.fs}
		for _, w := range files {
			p, err := mk.ProfileWorkload(w)
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", w.ID, row.fs.Name(), err)
			}
			err = ps.probeLog(row.fs, p.Log(), p.Checkpoints(), c)
			p.Release()
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", w.ID, row.fs.Name(), err)
			}
		}
		for _, w := range kvs {
			kp, err := mk.ProfileKV(w)
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", w.ID, row.fs.Name(), err)
			}
			err = ps.probeLog(row.fs, kp.Log(), kp.Checkpoints(), c)
			kp.Release()
			if err != nil {
				return fmt.Errorf("probe %s on %s: %w", w.ID, row.fs.Name(), err)
			}
		}
	}
	for _, w := range kvs {
		ps.probeOracle(w)
	}
	layers["blockdev.cursor_ns_per_state"] = ratio(float64(ps.cursorNS), float64(ps.cursorStates))
	layers["blockdev.reorder_enum_ns_per_state"] = ratio(float64(ps.reorderNS), float64(ps.reorderStates))
	layers["blockdev.fault_enum_ns_per_state"] = ratio(float64(ps.faultNS), float64(ps.faultStates))
	layers["blockdev.fingerprint_ns_per_block"] = ratio(float64(ps.fpNS), float64(ps.fpBlocks))
	layers["fs.mkfs_us_p50"] = quantile(ps.mkfsUS, 0.5)
	layers["fs.recover_mount_us_p50"] = quantile(ps.mountUS, 0.5)
	layers["fs.recover_mount_us_p99"] = quantile(ps.mountUS, 0.99)
	layers["kvoracle.build_us_p50"] = quantile(ps.buildUS, 0.5)
	layers["kvoracle.check_ns_per_state"] = ratio(float64(ps.checkNS), float64(ps.checks))
	if def.isKV() {
		return probeKVStore(rows[0].fs, layers)
	}
	return nil
}

// probeWorkloads re-enumerates the class once and keeps every
// probeStride-th member.
func probeWorkloads(def workloadDef, c b3.Campaign) (files []*workload.Workload, kvs []*kvace.Workload, generated int64, err error) {
	var members int64
	pick := func(seq int64) bool {
		if !inClass(c, seq) {
			return false
		}
		members++
		return members%probeStride == 0
	}
	if def.isKV() {
		bounds, perr := kvace.Profile(def.Profile)
		if perr != nil {
			return nil, nil, 0, perr
		}
		generated, err = kvace.New(bounds).GenerateSeq(func(seq int64, w *kvace.Workload) bool {
			if pick(seq) {
				kvs = append(kvs, w)
			}
			return c.MaxWorkloads == 0 || seq < c.MaxWorkloads
		})
		return nil, kvs, generated, err
	}
	generated, err = ace.New(*c.Bounds).GenerateSeq(func(seq int64, w *workload.Workload) bool {
		if pick(seq) {
			files = append(files, w)
		}
		return c.MaxWorkloads == 0 || seq < c.MaxWorkloads
	})
	return files, nil, generated, err
}

// probeLog runs the bare blockdev and backend calls over one recorded log.
// The base image is a fresh mkfs — byte-identical to the one the profile
// replays onto, and itself the mkfs timing sample.
func (ps *probeSet) probeLog(fs b3.FileSystem, log []blockdev.Record, checkpoints int, c b3.Campaign) error {
	base := blockdev.NewPooledMemDisk(crashmonkey.DefaultDeviceBlocks)
	defer base.Recycle()
	t := time.Now()
	if err := fs.Mkfs(base); err != nil {
		return err
	}
	ps.mkfsUS = append(ps.mkfsUS, float64(time.Since(t))/1e3)

	// Cursor construction: what TestCheckpoint pays per persistence point
	// before recovery — seek, fork, fingerprint.
	cur := blockdev.NewReplayCursor(base, log)
	t = time.Now()
	for cp := 1; cp <= checkpoints; cp++ {
		if _, err := cur.SeekCheckpoint(cp); err != nil {
			cur.Release()
			return err
		}
		fork := cur.Fork()
		_ = cur.Fingerprint()
		fork.Release()
	}
	ps.cursorNS += int64(time.Since(t))
	ps.cursorStates += int64(checkpoints)
	cur.Release()

	k := max(c.Reorder, 1)
	t = time.Now()
	rs, err := blockdev.ForEachReorderStatePruned(base, log, k, blockdev.ReorderEnumOpts{Commute: true}, nil,
		func(blockdev.ReorderState, *blockdev.Snapshot) bool { return true })
	if err != nil {
		return err
	}
	ps.reorderNS += int64(time.Since(t))
	ps.reorderStates += rs.States()

	kinds := c.Faults.Kinds
	if len(kinds) == 0 {
		kinds = []b3.FaultKind{b3.FaultTorn, b3.FaultCorrupt, b3.FaultMisdirect}
	}
	for _, kind := range kinds {
		t = time.Now()
		fst, err := blockdev.ForEachFaultStatePruned(base, log, kind, c.Faults.Sector(), blockdev.FaultEnumOpts{}, nil,
			func(blockdev.FaultState, *blockdev.Snapshot) bool { return true })
		if err != nil {
			return err
		}
		ps.faultNS += int64(time.Since(t))
		ps.faultStates += fst.States()
	}

	// The final crash state, built the scratch way: its overlay-scan
	// fingerprint is the per-block hashing cost, and mounting it is the
	// backend's recovery.
	final := blockdev.NewSnapshot(base)
	defer final.Release()
	if _, err := blockdev.ReplayPrefix(final, log, len(log)); err != nil {
		return err
	}
	t = time.Now()
	_ = final.Fingerprint()
	ps.fpNS += int64(time.Since(t))
	ps.fpBlocks += int64(len(final.DirtyBlocks()))
	t = time.Now()
	_, _ = fs.Mount(final) // a corrupted mount is still a timed recovery
	ps.mountUS = append(ps.mountUS, float64(time.Since(t))/1e3)
	return nil
}

// probeOracle times the expected-state oracle alone: building a workload's
// interval expectations, and judging one recovered state per interval (the
// acknowledged state itself, which is always legal).
func (ps *probeSet) probeOracle(w *kvace.Workload) {
	t := time.Now()
	exps := kvoracle.Build(w.Ops)
	ps.buildUS = append(ps.buildUS, float64(time.Since(t))/1e3)
	for _, e := range exps {
		recovered := make(map[string]string, len(e.Ack))
		for k, v := range e.Ack {
			recovered[k] = v
		}
		t = time.Now()
		_ = e.Check(recovered)
		ps.checkNS += int64(time.Since(t))
		ps.checks++
	}
}

// probeKVStore times the store's own durability calls on a freshly
// formatted backend: an acknowledged put (Put+Sync), a flush of eight
// records to a table, and a reopen that replays a four-record WAL tail.
func probeKVStore(fs b3.FileSystem, layers map[string]float64) error {
	const rounds = 64
	var putUS, flushUS, openUS []float64
	for i := 0; i < rounds; i++ {
		base := blockdev.NewPooledMemDisk(crashmonkey.DefaultDeviceBlocks)
		err := func() error {
			if err := fs.Mkfs(base); err != nil {
				return err
			}
			m, err := fs.Mount(base)
			if err != nil {
				return err
			}
			s, err := kvstore.Create(m, crashmonkey.KVDir)
			if err != nil {
				return err
			}
			for j := 0; j < 8; j++ {
				t := time.Now()
				if err := s.Put(fmt.Sprintf("k%d", j), fmt.Sprintf("v%d.%d", j, i)); err != nil {
					return err
				}
				if err := s.Sync(); err != nil {
					return err
				}
				putUS = append(putUS, float64(time.Since(t))/1e3)
			}
			t := time.Now()
			if err := s.Flush(); err != nil {
				return err
			}
			flushUS = append(flushUS, float64(time.Since(t))/1e3)
			for j := 0; j < 4; j++ {
				if err := s.Put(fmt.Sprintf("k%d", j), "tail"); err != nil {
					return err
				}
			}
			if err := s.Close(); err != nil {
				return err
			}
			t = time.Now()
			if _, err := kvstore.Open(m, crashmonkey.KVDir); err != nil {
				return err
			}
			openUS = append(openUS, float64(time.Since(t))/1e3)
			return nil
		}()
		base.Recycle()
		if err != nil {
			return fmt.Errorf("kvstore probe on %s: %w", fs.Name(), err)
		}
	}
	layers["kvstore.put_sync_us_p50"] = quantile(putUS, 0.5)
	layers["kvstore.flush_us_p50"] = quantile(flushUS, 0.5)
	layers["kvstore.open_replay_us_p50"] = quantile(openUS, 0.5)

	const records = 1 << 14
	var log []byte
	t := time.Now()
	for i := 0; i < records; i++ {
		log = kvstore.AppendFramed(log[:0], kvstore.EncodeRecord(kvstore.Record{
			Seq: uint64(i), Kind: kvstore.RecPut, Key: "k1", Value: "v1.2",
		}))
	}
	layers["kvstore.wal_encode_ns_per_record"] = float64(time.Since(t)) / records
	return nil
}
