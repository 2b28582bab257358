package rda

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/fault"
	"repro/internal/page"
	"repro/internal/wal"
)

// TestTransientRetryMasking runs a commit-heavy workload under a
// deterministic background transient-error rate and requires the retry
// layer to absorb every fault: no operation surfaces an error, no disk is
// fail-stopped, and the retry counters show the masking happened.
func TestTransientRetryMasking(t *testing.T) {
	for _, cfg := range []Config{
		smallConfig(PageLogging, Force, true, DataStriping),
		smallConfig(PageLogging, NoForce, true, DataStriping),
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plane := fault.NewPlane(nil)
			plane.SetTransientEvery(50)
			db.SetInjector(plane)

			r := rand.New(rand.NewSource(7))
			want := make(map[PageID][]byte)
			for i := 0; i < 80; i++ {
				tx := mustBegin(t, db)
				for k := 0; k < 2; k++ {
					p := PageID(r.Intn(db.NumPages()))
					img := fillPage(db, byte(i*5+k))
					if err := tx.WritePage(p, img); err != nil {
						t.Fatalf("tx %d write: %v", i, err)
					}
					want[p] = img
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("tx %d commit: %v", i, err)
				}
			}
			db.SetInjector(nil)

			st := db.Stats()
			if st.IORetries == 0 {
				t.Fatal("transient rate 1/50 but the retry layer saw nothing")
			}
			if st.RetryBackoffUnits == 0 {
				t.Fatal("retries charged no backoff")
			}
			if st.AutoFailStops != 0 {
				t.Fatalf("isolated transients must not fail-stop disks (got %d)", st.AutoFailStops)
			}
			if h := db.Health(); h != diskarray.Healthy {
				t.Fatalf("health = %v, want Healthy", h)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
			// Committed effects survived the fault storm (crash replays
			// NoForce buffers onto disk first).
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			for p, img := range want {
				got, err := db.PeekPage(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, img) {
					t.Fatalf("page %d lost its committed image under transient faults", p)
				}
			}
		})
	}
}

// storm is an injector that persistently fails every access to one disk
// with transient errors — the "is it really transient?" case the
// auto-fail-stop heuristic exists for.
type storm struct{ disk int }

func (s storm) Observe(a disk.Access) disk.Decision {
	if a.Disk == s.disk {
		return disk.Decision{Err: disk.ErrTransient}
	}
	return disk.Decision{}
}

// TestAutoFailStopToDegraded subjects one disk to a persistent
// transient-error storm.  The retry layer must conclude the disk is gone
// (auto fail-stop), the health machine must move to Degraded, and the
// interrupted operations must still succeed — served from redundancy, no
// error surfaced to the transaction.  A manual rebuild then restores
// Healthy.
func TestAutoFailStopToDegraded(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	d := db.arr.DataLoc(0).Disk
	db.SetInjector(storm{disk: d})

	// A read of page 0 hits the stormed disk; retries exhaust, the disk
	// fail-stops, and the read is served by reconstruction.
	tx := mustBegin(t, db)
	got, err := tx.ReadPage(0)
	if err != nil {
		t.Fatalf("read through disk storm: %v", err)
	}
	if !bytes.Equal(got, imgs[0]) {
		t.Fatal("degraded read returned wrong image")
	}
	// A write of the now-unreachable page also succeeds degraded.
	newImg := fillPage(db, 0xA7)
	if err := tx.WritePage(0, newImg); err != nil {
		t.Fatalf("write through disk storm: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit through disk storm: %v", err)
	}

	st := db.Stats()
	if st.AutoFailStops == 0 {
		t.Fatal("persistent storm did not trip auto fail-stop")
	}
	if st.IORetries == 0 || st.RetryBackoffUnits == 0 {
		t.Fatalf("storm left no retry trace: %+v", st)
	}
	if h := db.Health(); h != diskarray.Degraded {
		t.Fatalf("health = %v, want Degraded", h)
	}
	if st.DegradedReads == 0 || st.DegradedWrites == 0 {
		t.Fatalf("degraded serving counters empty: %+v", st)
	}

	// Replace the drive (storm gone) and rebuild online.
	db.SetInjector(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		done, err := db.RebuildStep(0)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuild did not finish")
		}
	}
	if h := db.Health(); h != diskarray.Healthy {
		t.Fatalf("health after rebuild = %v, want Healthy", h)
	}
	if db.Stats().RebuiltGroups == 0 {
		t.Fatal("rebuild restored no groups")
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	got2, err := db.PeekPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, newImg) {
		t.Fatal("rebuild materialized a stale image of the degraded write")
	}
}

// TestHealRetriesAfterAnotherOperationHealed: two operations fail on the
// same dead drive, and the other one heals first.  This one must still
// retry — the engine now serves a health generation it did not run under —
// instead of surfacing the dead drive's error to its transaction.
func TestHealRetriesAfterAnotherOperationHealed(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	tx := mustBegin(t, db)
	// The array sees the death; the engine has adopted nothing yet.
	if err := db.arr.FailDisk(db.arr.DataLoc(0).Disk); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	var got []byte
	err = tx.healing(func() error {
		attempts++
		err := db.underGroup(0, func(h *opLatches) error {
			f, err := db.pool.Get(0, h.guard)
			if err != nil {
				return err
			}
			defer db.pool.Unpin(0)
			got = f.Data.Clone()
			return nil
		})
		if attempts == 1 {
			other := db.adopted.Load()
			if !db.healWorld(&other) {
				t.Error("the other operation adopted no generation")
			}
		}
		return err
	})
	if err != nil || attempts != 2 {
		t.Fatalf("read after another operation healed: %v after %d attempt(s), want served on the second", err, attempts)
	}
	if !bytes.Equal(got, imgs[0]) {
		t.Fatal("the retried read served a stale image")
	}
}

// TestSecondFailureTyped verifies the redundancy boundary: with two
// disks down the array cannot serve, and every affected operation
// surfaces the typed ErrArrayFailed — no panic, no fabricated data — and
// RepairDisks remains the documented way out.
func TestSecondFailureTyped(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	if err := db.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := db.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h != diskarray.Failed {
		t.Fatalf("health = %v, want Failed", h)
	}

	// Sweep every page: groups that kept enough redundancy may still
	// serve (the twin advantage), but at least one page must be beyond
	// reach, and anything unreachable fails typed — never any other
	// error, never fabricated data.
	typedFailures := 0
	for p := 0; p < db.NumPages(); p++ {
		tx := mustBegin(t, db)
		got, err := tx.ReadPage(PageID(p))
		switch {
		case err == nil:
			if !bytes.Equal(got, imgs[PageID(p)]) {
				t.Fatalf("page %d served fabricated data on a failed array", p)
			}
		case errors.Is(err, ErrArrayFailed):
			typedFailures++
		default:
			t.Fatalf("page %d: err = %v, want ErrArrayFailed or success", p, err)
		}
		_ = tx.Abort()
	}
	if typedFailures == 0 {
		t.Fatal("two dead disks but every page still served")
	}

	if _, err := db.RebuildStep(0); !errors.Is(err, ErrArrayFailed) {
		t.Fatalf("rebuild on failed array: err = %v, want ErrArrayFailed", err)
	}

	lost, err := db.RepairDisks(0, 1)
	if err != nil {
		t.Fatalf("RepairDisks: %v", err)
	}
	if h := db.Health(); h != diskarray.Healthy {
		t.Fatalf("health after RepairDisks = %v, want Healthy", h)
	}
	checkAfterDoubleFailure(t, db, imgs, lost)
}

// TestOnlineRebuildUnderTraffic is the marquee self-healing scenario: a
// disk dies in the middle of concurrent transaction traffic (with a
// background transient-error rate for good measure), the online rebuild
// worker restores it group by group while the workers keep committing,
// and at the end — across a crash — every committed update is present,
// the parity invariant holds and the twin bitmap is clean.
func TestOnlineRebuildUnderTraffic(t *testing.T) {
	for _, eot := range []EOTDiscipline{Force, NoForce} {
		t.Run(fmt.Sprintf("%v", eot), func(t *testing.T) {
			db, err := Open(smallConfig(PageLogging, eot, true, DataStriping))
			if err != nil {
				t.Fatal(err)
			}
			plane := fault.NewPlane(nil)
			plane.SetTransientEvery(113)
			db.SetInjector(plane)

			const workers = 4
			span := db.NumPages() / workers
			var (
				commits atomic.Int64
				stop    atomic.Bool
				wg      sync.WaitGroup
			)
			oracles := make([]map[PageID][]byte, workers)
			for w := 0; w < workers; w++ {
				w := w
				oracles[w] = make(map[PageID][]byte)
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(1000 + w)))
					for iter := 0; !stop.Load(); iter++ {
						tx, err := db.Begin()
						if err != nil {
							t.Errorf("worker %d begin: %v", w, err)
							return
						}
						staged := make(map[PageID][]byte)
						for k := 0; k < 1+r.Intn(2); k++ {
							p := PageID(w*span + r.Intn(span))
							img := fillPage(db, byte(w*31+iter*7+k))
							if err := tx.WritePage(p, img); err != nil {
								t.Errorf("worker %d write page %d: %v", w, p, err)
								return
							}
							staged[p] = img
						}
						if r.Intn(8) == 0 {
							if err := tx.Abort(); err != nil {
								t.Errorf("worker %d abort: %v", w, err)
								return
							}
							continue
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("worker %d commit: %v", w, err)
							return
						}
						for p, img := range staged {
							oracles[w][p] = img
						}
						commits.Add(1)
					}
				}()
			}

			waitCommits := func(n int64) {
				deadline := time.Now().Add(20 * time.Second)
				for commits.Load() < n {
					if time.Now().After(deadline) {
						stop.Store(true)
						wg.Wait()
						t.Fatalf("workers stalled at %d commits", commits.Load())
					}
					time.Sleep(time.Millisecond)
				}
			}

			// Let traffic build up, then kill a disk mid-flight and
			// rebuild online while the workers keep going.
			waitCommits(40)
			if err := db.FailDisk(2); err != nil {
				t.Fatal(err)
			}
			before := commits.Load()
			// One group a step: maximum interleaving with the traffic.
			for done := false; !done; runtime.Gosched() {
				var err error
				if done, err = db.RebuildStep(1); err != nil {
					t.Fatalf("online rebuild: %v", err)
				}
			}
			waitCommits(before + 40)
			stop.Store(true)
			wg.Wait()
			db.SetInjector(nil)
			if t.Failed() {
				return
			}

			if h := db.Health(); h != diskarray.Healthy {
				t.Fatalf("health after rebuild = %v, want Healthy", h)
			}
			st := db.Stats()
			if st.RebuiltGroups == 0 {
				t.Fatal("rebuild restored no groups")
			}
			if st.IORetries == 0 {
				t.Fatal("background transient rate left no retry trace")
			}

			// Zero lost committed updates, durably: crash, recover,
			// compare the platters against the workers' oracles.
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				for p, img := range oracles[w] {
					got, err := db.PeekPage(p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, img) {
						t.Fatalf("worker %d page %d lost its committed image", w, p)
					}
				}
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
			// Twin bitmap clean: no dirty groups, no working twins.
			for p := 0; p < db.NumPages(); p++ {
				info, err := db.InspectGroup(PageID(p))
				if err != nil {
					t.Fatal(err)
				}
				if info.Dirty {
					t.Fatalf("group %d still dirty after rebuild + recovery", info.Group)
				}
				for twin, state := range info.TwinStates {
					if state == "working" {
						t.Fatalf("group %d twin %d left in working state", info.Group, twin)
					}
				}
			}
		})
	}
}

// pumpRebuild drives RebuildStep to completion with a deadline.
func pumpRebuild(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done, err := db.RebuildStep(0)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuild did not finish")
		}
	}
}

// readAllTx reads every page through the transactional path and compares
// it against the oracle — exercising degraded serving when a disk is
// down, and failing on any surfaced error or stale image.
func readAllTx(t *testing.T, db *DB, imgs map[PageID][]byte, when string) {
	t.Helper()
	tx := mustBegin(t, db)
	for p := 0; p < db.NumPages(); p++ {
		got, err := tx.ReadPage(PageID(p))
		if err != nil {
			t.Fatalf("%s: read page %d: %v", when, p, err)
		}
		if !bytes.Equal(got, imgs[PageID(p)]) {
			t.Fatalf("%s: page %d served a stale image", when, p)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacementFailureMidRebuild kills a replacement drive after the
// rebuild has restored some groups onto it: on twin parity the one
// replacement, on P+Q either of the two-drive rebuild's, on both layouts.
// The restored-group flags must be invalidated: the blocks restored onto
// the dead replacement are gone again, so their groups must return to
// degraded serving (not surface errors) and the next rebuild must
// reconstruct them from scratch (not skip them and complete with all-zero
// blocks).
func TestReplacementFailureMidRebuild(t *testing.T) {
	t.Run("twin", func(t *testing.T) {
		replacementDiesMidRebuild(t, smallConfig(PageLogging, Force, true, DataStriping), []int{0}, 1, 0)
	})
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		cfg := smallConfig(PageLogging, Force, true, layout)
		cfg.QParity = true
		for _, victim := range []int{0, 1} {
			t.Run(fmt.Sprintf("pq-%v-victim%d", layout, victim), func(t *testing.T) {
				replacementDiesMidRebuild(t, cfg, []int{0, 1}, 6, victim)
			})
		}
	}
}

// replacementDiesMidRebuild fails the drives dead, restores step groups
// onto their replacements, fails the victim's replacement, and checks that
// every page reads back between the failures and after the next rebuild,
// with every group's parity whole.
func replacementDiesMidRebuild(t *testing.T, cfg Config, dead []int, step, victim int) {
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	for _, d := range dead {
		if err := db.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	// One batch of the rebuild: the replacements are swapped in and step
	// groups are restored onto them.
	done, err := db.RebuildStep(step)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatalf("%d groups cannot be the whole array in this geometry", step)
	}
	if n := db.Stats().RebuiltGroups; n != int64(step) {
		t.Fatalf("RebuiltGroups = %d after one %d-group step", n, step)
	}

	// The replacement dies too.  The restored groups' blocks died with
	// it: their restored flags must be reset so they serve degraded again.
	if err := db.FailDisk(victim); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h != diskarray.Degraded {
		t.Fatalf("health = %v, want Degraded after replacement loss", h)
	}
	if n := db.Stats().RebuiltGroups; n != 0 {
		t.Fatalf("RebuiltGroups = %d, want 0 after replacement loss", n)
	}
	readAllTx(t, db, imgs, "between failures")

	// A fresh rebuild must restore the whole drives, including the groups
	// the aborted rebuild had already marked restored.
	pumpRebuild(t, db)
	if h := db.Health(); h != diskarray.Healthy {
		t.Fatalf("health = %v, want Healthy", h)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for p, want := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d lost its committed image across the replacement failure", p)
		}
	}
}

// TestReplacementAutoFailStopMidRebuild is the organic variant: the
// replacement drive dies via the auto-fail-stop heuristic (persistent
// transient errors) instead of an explicit FailDisk, so the stale
// restored-group state is only discovered lazily, when a failed read
// routes through syncHealth.  The reads must still be served from
// redundancy and the re-run rebuild must restore every block.
func TestReplacementAutoFailStopMidRebuild(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	// Page 0's disk: group 0 is then both the first group restored by the
	// single-group step below and one whose data the sweep reads through
	// the replacement, guaranteeing the storm is hit.
	d := db.arr.DataLoc(0).Disk
	if err := db.FailDisk(d); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RebuildStep(1); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats().RebuiltGroups; n != 1 {
		t.Fatalf("RebuiltGroups = %d after one single-group step", n)
	}

	// The replacement starts erroring on every access; the first read
	// that touches it must trip the auto fail-stop and be served
	// degraded, with the stale restored flags reset along the way.
	db.SetInjector(storm{disk: d})
	readAllTx(t, db, imgs, "under replacement storm")
	if h := db.Health(); h != diskarray.Degraded {
		t.Fatalf("health = %v, want Degraded after auto fail-stop", h)
	}
	if n := db.Stats().RebuiltGroups; n != 0 {
		t.Fatalf("RebuiltGroups = %d, want 0 after auto fail-stop of the replacement", n)
	}
	db.SetInjector(nil)

	pumpRebuild(t, db)
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for p, want := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d lost its committed image across the replacement fail-stop", p)
		}
	}
}

// undoProbe observes the disk access stream and records, at the first
// access it sees, whether a before-image for the probed page was already
// on the log.
type undoProbe struct {
	log    *wal.Log
	page   page.PageID
	sawIO  bool
	logged bool
}

func (u *undoProbe) Observe(a disk.Access) disk.Decision {
	if !u.sawIO {
		u.sawIO = true
		_ = u.log.Scan(1, func(r wal.Record) bool {
			if r.Type == wal.TypeBeforeImage && r.Page == u.page {
				u.logged = true
				return false
			}
			return true
		})
	}
	return disk.Decision{}
}

// TestDemoteLogsUndoBeforeDisk locks in the ordering invariant of
// demoteNoLogSteal that syncHealth relies on when it swallows a demotion
// error during a disk loss: the owner's UNDO before-image reaches the
// log before the demotion's first disk I/O, so a demotion interrupted by
// a second failure always leaves a log-based undo path.
func TestDemoteLogsUndoBeforeDisk(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)

	// Dirty a group: an active transaction's page is stolen through the
	// no-UNDO-logging path by the checkpoint flush.
	const p = PageID(0)
	tx := mustBegin(t, db)
	if err := tx.WritePage(p, fillPage(db, 0x5C)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g := db.arr.GroupOf(page.PageID(p))
	e, dirty := db.store.Dirty.Lookup(g)
	if !dirty {
		t.Fatal("checkpoint flush did not take the no-log steal path")
	}

	// Fail the disk holding the group's working twin: syncHealth must
	// demote the steal, and the demotion's log appends must precede its
	// disk I/O.
	probe := &undoProbe{log: db.log, page: page.PageID(p)}
	db.SetInjector(probe)
	if err := db.FailDisk(db.arr.Loc(g, diskarray.P.Twin(e.WorkingTwin)).Disk); err != nil {
		t.Fatal(err)
	}
	db.SetInjector(nil)
	if !probe.sawIO {
		t.Fatal("demotion performed no disk I/O")
	}
	if !probe.logged {
		t.Fatal("demotion touched disk before the owner's UNDO before-image was logged")
	}
	if _, still := db.store.Dirty.Lookup(g); still {
		t.Fatal("group still dirty after demotion")
	}

	// The logged undo path works: abort restores the committed image.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := db.PeekPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, imgs[p]) {
		t.Fatal("abort after demotion did not restore the committed image")
	}
}
