package crashcheck

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/rda"
)

// These tests re-run the fault sweeps with engine-internal parallelism
// enabled (Options.Workers > 1).  The workload is still single-threaded,
// so a schedule's crash index is still deterministic; what changes is
// that recovery's whole-array scans, the online rebuild's batches and
// bulk-load stripes fan out across goroutines — so a crash point can now
// land on a workpool worker and must still unwind into CrashHard
// cleanly, and the recovery invariants must hold whatever interleaving
// the scheduler picked.

// TestSoakWithWorkers is the randomized crash-and-recover soak with
// parallel recovery scans.
func TestSoakWithWorkers(t *testing.T) {
	soakRows(t, []Options{{Layout: rda.DataStriping, Seed: 1, Txns: 4, OpsPerTx: 3, Workers: 4}}, 8, Crashes)
}

// TestDegradedScheduleWithWorkers crashes inside the parallel online
// rebuild: the disk is down from the start, and the crash index sweeps
// into the rebuild that follows the workload, so crash sentinels fire on
// rebuild worker goroutines.
func TestDegradedScheduleWithWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("degraded sweep in -short mode")
	}
	opts := small(rda.DataStriping)
	opts.Workers = 4
	_, full, err := count(opts, deadPrefix(1))
	if err != nil {
		t.Fatal(err)
	}
	// Sample the write clock rather than sweeping exhaustively: the
	// parallel write order varies run to run anyway, so each index is a
	// fresh interleaving, not a replay.
	for k := int64(0); k < full; k += 3 {
		sched := append(deadPrefix(1), fault.CrashAfterNWrites(k))
		if _, _, err := Run(opts, sched); err != nil {
			t.Errorf("workers=4 %v: %v", sched, err)
		}
	}
}

// TestMixTransientWithWorkers combines a background transient-error
// rate, a mid-run disk death and a crash, all with parallel recovery
// and rebuild scans.  The last index puts the crash past the end of the
// workload, inside the probe.
func TestMixTransientWithWorkers(t *testing.T) {
	opts := small(rda.DataStriping)
	opts.Workers, opts.TransientEvery = 4, 7
	total, _, err := count(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total < 3 {
		t.Fatalf("workload too small: %d writes", total)
	}
	for _, k := range []int64{0, total / 2, total - 2, total} {
		sched := fault.Schedule{fault.FailDisk(1, k), fault.CrashAfterNWrites(k + 1)}
		if _, _, err := Run(opts, sched); err != nil {
			t.Errorf("workers=4 %v: %v", sched, err)
		}
	}
}

// TestBulkLoadCrashParallel crashes a parallel bulk load at every write
// index.  Bulk loading is documented as non-atomic (loaders re-run after
// a crash), so the oracle here is the invariant set: recovery must
// succeed, the parity identity and twin legality must hold, and a probe
// transaction must commit durably — whichever stripes the crash cut.
func TestBulkLoadCrashParallel(t *testing.T) {
	cfg := dbConfig(Options{Layout: rda.DataStriping, Workers: 4})
	images := make([][]byte, cfg.NumPages)
	for i := range images {
		img := make([]byte, cfg.PageSize)
		for j := range img {
			img[j] = byte(i*31 + j)
		}
		images[i] = img
	}

	// Count the load's writes once, uncrashed.
	db, err := rda.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plane := fault.NewPlane(nil)
	db.SetInjector(plane)
	if _, err := db.BulkLoad(0, images); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	total := plane.Writes()
	if total == 0 {
		t.Fatal("bulk load issued no writes")
	}

	for k := int64(0); k < total; k++ {
		db, err := rda.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db.SetInjector(fault.NewPlane(fault.Schedule{fault.CrashAfterNWrites(k)}))
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := fault.AsCrash(r); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			_, err := db.BulkLoad(0, images)
			if err != nil {
				t.Fatalf("crash@w%d: bulk load error (want crash panic or success): %v", k, err)
			}
			return false
		}()
		if !crashed {
			t.Fatalf("crash@w%d did not fire within %d writes", k, total)
		}
		db.CrashHard()
		if _, err := db.Recover(); err != nil {
			t.Fatalf("crash@w%d: recover: %v", k, err)
		}
		if err := db.VerifyRecovered(); err != nil {
			t.Fatalf("crash@w%d: %v", k, err)
		}
		// The engine must still do transactional work on top of the
		// partial load.
		tx, err := db.Begin()
		if err != nil {
			t.Fatalf("crash@w%d: probe begin: %v", k, err)
		}
		probe := make([]byte, cfg.PageSize)
		for j := range probe {
			probe[j] = 0xA5
		}
		if err := tx.WritePage(0, probe); err != nil {
			t.Fatalf("crash@w%d: probe write: %v", k, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("crash@w%d: probe commit: %v", k, err)
		}
		got, err := db.PeekPage(0)
		if err != nil {
			t.Fatalf("crash@w%d: probe peek: %v", k, err)
		}
		if !bytes.Equal(got, probe) {
			t.Fatalf("crash@w%d: probe update not durable", k)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("crash@w%d: %v", k, err)
		}
	}
}
