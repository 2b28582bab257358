package rda

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/diskarray"
)

// qparityConfig is smallConfig with the second redundancy equation on.
func qparityConfig() Config {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	cfg.QParity = true
	return cfg
}

// TestQParityDoubleFailureNoLoss sweeps every disk pair on a P+Q array:
// two simultaneous deaths stay within the redundancy budget, so the
// array serves double-degraded, media recovery loses nothing, and every
// page comes back bit exact.
func TestQParityDoubleFailureNoLoss(t *testing.T) {
	probe, err := Open(qparityConfig())
	if err != nil {
		t.Fatal(err)
	}
	nd := probe.NumDisks()
	for dA := 0; dA < nd; dA++ {
		for dB := dA + 1; dB < nd; dB++ {
			db, err := Open(qparityConfig())
			if err != nil {
				t.Fatal(err)
			}
			imgs := loadAll(t, db)
			if err := db.FailDisk(dA); err != nil {
				t.Fatalf("pair (%d,%d): first failure: %v", dA, dB, err)
			}
			if err := db.FailDisk(dB); err != nil {
				t.Fatalf("pair (%d,%d): second failure: %v", dA, dB, err)
			}
			if h := db.Health(); h != diskarray.DoubleDegraded {
				t.Fatalf("pair (%d,%d): health = %v, want DoubleDegraded", dA, dB, h)
			}
			// Double-degraded serving: every page is still readable
			// through the surviving redundancy before any repair runs.
			tx := mustBegin(t, db)
			for p, want := range imgs {
				got, err := tx.ReadPage(p)
				if err != nil {
					t.Fatalf("pair (%d,%d): double-degraded read of page %d: %v", dA, dB, p, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("pair (%d,%d): double-degraded read of page %d wrong", dA, dB, p)
				}
			}
			tx.Abort()
			lost, err := db.RepairDisks(dA, dB)
			if err != nil {
				t.Fatalf("pair (%d,%d): repair: %v", dA, dB, err)
			}
			if len(lost) != 0 {
				t.Fatalf("pair (%d,%d): P+Q repair lost groups %v", dA, dB, lost)
			}
			checkAfterDoubleFailure(t, db, imgs, nil)
		}
	}
}

// TestQParityTwoDriveOnlineRebuild recovers from two simultaneous deaths
// with the online rebuild (two replacement drives reconstructed batch by
// batch) instead of offline media recovery.
func TestQParityTwoDriveOnlineRebuild(t *testing.T) {
	db, err := Open(qparityConfig())
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
	steps := 0
	for {
		done, err := db.RebuildStep(2)
		if err != nil {
			t.Fatalf("rebuild step %d: %v", steps, err)
		}
		steps++
		if done {
			break
		}
		if steps > 10*db.NumGroups() {
			t.Fatalf("rebuild did not converge after %d steps", steps)
		}
	}
	if h := db.Health(); h != diskarray.Healthy {
		t.Fatalf("health after rebuild = %v, want Healthy", h)
	}
	for p, want := range imgs {
		got, err := db.PeekPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d wrong after two-drive rebuild", p)
		}
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestQParityTripleLossFails exhausts the two-equation budget: the third
// death fails the array, reads of pages beyond the redundancy surface
// the typed ErrArrayFailed (never fabricated data), and maintenance
// entry points refuse with the same signal.
func TestQParityTripleLossFails(t *testing.T) {
	db, err := Open(qparityConfig())
	if err != nil {
		t.Fatal(err)
	}
	imgs := loadAll(t, db)
	for d := 0; d < 3; d++ {
		if err := db.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if h := db.Health(); h != diskarray.Failed {
		t.Fatalf("health = %v, want Failed", h)
	}
	refused := 0
	for p, want := range imgs {
		tx := mustBegin(t, db)
		got, err := tx.ReadPage(p)
		switch {
		case err == nil:
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d served fabricated data on a failed array", p)
			}
		case errors.Is(err, ErrArrayFailed):
			refused++
		default:
			t.Fatalf("page %d: err = %v, want ErrArrayFailed or success", p, err)
		}
		_ = tx.Abort()
	}
	if refused == 0 {
		t.Fatalf("three dead disks, yet every page was served")
	}
	if _, err := db.RebuildStep(0); !errors.Is(err, ErrArrayFailed) {
		t.Fatalf("rebuild on failed array: err = %v, want ErrArrayFailed", err)
	}
}

// TestQParityDegradedScrubRepairs is the dual-fault repair the second
// equation exists for: with one disk dead AND a silently corrupt block
// in the same group, a single-parity array can only refuse
// (ErrUnrecoverableCorruption) — the P+Q array scrubs the corruption
// away while still degraded and keeps serving.
func TestQParityDegradedScrubRepairs(t *testing.T) {
	cfg := qparityConfig()
	cfg.BufferFrames = 2
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make(map[PageID][]byte)
	tx := mustBegin(t, db)
	for p := PageID(0); p < 8; p++ {
		img := fillPage(db, byte(p+1))
		imgs[p] = img
		if err := tx.WritePage(p, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Evict the committed pages, then kill page 0's disk and corrupt a
	// surviving member of its group: the dual fault of the test name.
	evict := mustBegin(t, db)
	for p := PageID(20); p < 24; p++ {
		if _, err := evict.ReadPage(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := evict.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.FailDisk(db.arr.DataLoc(0).Disk); err != nil {
		t.Fatal(err)
	}
	info, err := db.InspectGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	var survivor PageID = 1
	for _, q := range info.Pages {
		if q != 0 {
			survivor = q
			break
		}
	}
	if err := db.CorruptBlock(survivor); err != nil {
		t.Fatal(err)
	}
	rep := scrubCycle(t, db)
	if rep.LatentErrors == 0 || rep.Repaired == 0 || rep.GroupsSkipped != 0 {
		t.Fatalf("scrub report %+v, want the planted corruption found and repaired, and no degraded group skipped", rep)
	}
	// The dead member and the repaired survivor both read back exactly.
	check := mustBegin(t, db)
	for _, p := range []PageID{0, survivor} {
		got, err := check.ReadPage(p)
		if err != nil {
			t.Fatalf("page %d after degraded scrub: %v", p, err)
		}
		if !bytes.Equal(got, imgs[p]) {
			t.Fatalf("page %d wrong after degraded scrub repair", p)
		}
	}
	check.Abort()
	if s := db.Stats(); s.UnrecoverableCorruption != 0 {
		t.Fatalf("integrity counters %+v, want no unrecoverable refusals", s)
	}
}

// TestQParityDegradedRestartAgreesWithFigure7 is the degraded P+Q restart
// the benchmark found (PR 13).  With a drive down, a write that leaves a
// page's bytes as they were — the payloads come from a small pool, as the
// benchmark's do — lands on the obsolete index under a fresh timestamp
// while the other index keeps describing the data too.  If the next
// restart then establishes the older index (it has more live slots) and
// keeps its committed header, the newer committed sibling would win a
// later Figure 7 scan: VerifyRecovered must accept what every restart
// leaves behind.
func TestQParityDegradedRestartAgreesWithFigure7(t *testing.T) {
	db, err := Open(qparityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pool := [][]byte{fillPage(db, 0), fillPage(db, 1), fillPage(db, 2)}
	update := func(tx *Tx, n int) {
		for k := 0; k < n; k++ {
			p := PageID(rng.Intn(db.NumPages()))
			if err := tx.WritePage(p, pool[rng.Intn(len(pool))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 60; i++ {
			tx := mustBegin(t, db)
			update(tx, 2)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// A loser with more pages than the buffer holds, so some of them
		// reach the platter before the crash.
		update(mustBegin(t, db), 8)
		db.Crash()
		if _, err := db.Recover(); err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		if err := db.VerifyRecovered(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}
