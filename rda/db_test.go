package rda

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/record"
)

// smallConfig returns a small geometry that forces buffer steals.
func smallConfig(logging LoggingMode, eot EOTDiscipline, useRDA bool, layout Layout) Config {
	return Config{
		DataDisks:    4,
		NumPages:     48,
		PageSize:     64,
		BufferFrames: 6,
		Layout:       layout,
		Logging:      logging,
		EOT:          eot,
		RDA:          useRDA,
		RecordSize:   16,
		LogPageSize:  256,
		LogWriteCost: 4,
	}
}

// allConfigs enumerates the eight algorithm combinations on data
// striping plus two parity-striping spot checks.
func allConfigs() []Config {
	var out []Config
	for _, logging := range []LoggingMode{PageLogging, RecordLogging} {
		for _, eot := range []EOTDiscipline{Force, NoForce} {
			for _, useRDA := range []bool{false, true} {
				out = append(out, smallConfig(logging, eot, useRDA, DataStriping))
			}
		}
	}
	out = append(out,
		smallConfig(PageLogging, Force, true, ParityStriping),
		smallConfig(PageLogging, NoForce, true, ParityStriping),
		smallConfig(RecordLogging, NoForce, true, ParityStriping),
	)
	// Width-1 groups: mirrored pairs (single parity) and twin-page
	// storage (RDA) take the same battery.
	for _, useRDA := range []bool{false, true} {
		mirror := smallConfig(PageLogging, Force, useRDA, DataStriping)
		mirror.DataDisks = 1
		mirror.NumPages = 32
		out = append(out, mirror)
	}
	return out
}

func cfgName(c Config) string {
	return fmt.Sprintf("%v/%v/rda=%v/%v/N=%d", c.Logging, c.EOT, c.RDA, c.Layout, c.DataDisks)
}

func fillPage(db *DB, seed byte) []byte {
	b := make([]byte, db.PageSize())
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

func mustBegin(t *testing.T, db *DB) *Tx {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestCommitDurableAcrossCrash(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[PageID][]byte)
			tx := mustBegin(t, db)
			if cfg.Logging == PageLogging {
				for p := PageID(0); p < 8; p++ {
					img := fillPage(db, byte(p+1))
					if err := tx.WritePage(p, img); err != nil {
						t.Fatal(err)
					}
					want[p] = img
				}
			} else {
				for p := PageID(0); p < 8; p++ {
					if err := tx.WriteRecord(p, 0, []byte{byte(p + 1)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			check := mustBegin(t, db)
			if cfg.Logging == PageLogging {
				for p, img := range want {
					got, err := check.ReadPage(p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, img) {
						t.Fatalf("page %d lost after crash", p)
					}
				}
			} else {
				for p := PageID(0); p < 8; p++ {
					got, err := check.ReadRecord(p, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got[0] != byte(p+1) {
						t.Fatalf("record %d.0 lost after crash", p)
					}
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAbortRestores(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Establish committed baselines.
			setup := mustBegin(t, db)
			base := make(map[PageID][]byte)
			for p := PageID(0); p < 12; p++ {
				if cfg.Logging == PageLogging {
					img := fillPage(db, byte(p+0x30))
					if err := setup.WritePage(p, img); err != nil {
						t.Fatal(err)
					}
					base[p] = img
				} else if err := setup.WriteRecord(p, 1, []byte{0x30 + byte(p)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			// Modify many pages (more than the buffer holds, forcing
			// steals), then abort.
			tx := mustBegin(t, db)
			for p := PageID(0); p < 12; p++ {
				if cfg.Logging == PageLogging {
					if err := tx.WritePage(p, fillPage(db, byte(p+0x90))); err != nil {
						t.Fatal(err)
					}
				} else if err := tx.WriteRecord(p, 1, []byte{0x90 + byte(p)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}

			check := mustBegin(t, db)
			for p := PageID(0); p < 12; p++ {
				if cfg.Logging == PageLogging {
					got, err := check.ReadPage(p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, base[p]) {
						t.Fatalf("page %d not restored by abort", p)
					}
				} else {
					got, err := check.ReadRecord(p, 1)
					if err != nil {
						t.Fatal(err)
					}
					if got[0] != 0x30+byte(p) {
						t.Fatalf("record %d.1 not restored by abort", p)
					}
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrashUndoesLosers(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			setup := mustBegin(t, db)
			base := make(map[PageID][]byte)
			for p := PageID(0); p < 12; p++ {
				if cfg.Logging == PageLogging {
					img := fillPage(db, byte(p+0x11))
					if err := setup.WritePage(p, img); err != nil {
						t.Fatal(err)
					}
					base[p] = img
				} else if err := setup.WriteRecord(p, 0, []byte{0x11 + byte(p)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			// A winner and a loser interleave.
			winner := mustBegin(t, db)
			loser := mustBegin(t, db)
			for p := PageID(0); p < 6; p++ {
				if cfg.Logging == PageLogging {
					if err := winner.WritePage(p, fillPage(db, byte(p+0x50))); err != nil {
						t.Fatal(err)
					}
					if err := loser.WritePage(p+6, fillPage(db, byte(p+0xA0))); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := winner.WriteRecord(p, 0, []byte{0x50 + byte(p)}); err != nil {
						t.Fatal(err)
					}
					if err := loser.WriteRecord(p+6, 0, []byte{0xA0 + byte(p)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := winner.Commit(); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			rep, err := db.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Losers != 1 {
				t.Fatalf("losers = %d, want 1", rep.Losers)
			}

			check := mustBegin(t, db)
			for p := PageID(0); p < 12; p++ {
				if cfg.Logging == PageLogging {
					got, err := check.ReadPage(p)
					if err != nil {
						t.Fatal(err)
					}
					if p < 6 {
						if !bytes.Equal(got, fillPage(db, byte(p+0x50))) {
							t.Fatalf("winner page %d lost", p)
						}
					} else if !bytes.Equal(got, base[p]) {
						t.Fatalf("loser page %d not undone", p)
					}
				} else {
					got, err := check.ReadRecord(p, 0)
					if err != nil {
						t.Fatal(err)
					}
					want := byte(0x11 + p)
					if p < 6 {
						want = byte(0x50 + p)
					}
					if got[0] != want {
						t.Fatalf("record %d.0 = %#x, want %#x", p, got[0], want)
					}
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRDAAvoidsUndoLogging(t *testing.T) {
	// The whole point of the paper: with RDA recovery, most steals write
	// no before-images.  Run the same single-transaction workload with
	// and without RDA and compare log volume.
	run := func(useRDA bool) Stats {
		cfg := smallConfig(PageLogging, Force, useRDA, DataStriping)
		db, err := Open(cfg)
		if err != nil {
			panic(err)
		}
		db.ResetStats()
		tx, err := db.Begin()
		if err != nil {
			panic(err)
		}
		// Touch pages in distinct parity groups: every steal is eligible
		// for the no-logging path.
		for p := PageID(0); p < 10; p++ {
			if err := tx.WritePage(p*4, fillPage(db, byte(p))); err != nil {
				panic(err)
			}
		}
		if err := tx.Commit(); err != nil {
			panic(err)
		}
		return db.Stats()
	}
	with := run(true)
	without := run(false)
	if with.LogRecords >= without.LogRecords {
		t.Fatalf("RDA log records = %d, want fewer than baseline %d", with.LogRecords, without.LogRecords)
	}
	// Baseline logs 10 before-images that RDA avoids entirely here.
	if diff := without.LogRecords - with.LogRecords; diff != 10 {
		t.Fatalf("before-images avoided = %d, want 10", diff)
	}
}

func TestDeadlockVictimAutoAborts(t *testing.T) {
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1 := mustBegin(t, db)
	t2 := mustBegin(t, db)
	if err := t1.WritePage(0, fillPage(db, 1)); err != nil {
		t.Fatal(err)
	}
	if err := t2.WritePage(1, fillPage(db, 2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t1.WritePage(1, fillPage(db, 3)) }()
	time.Sleep(30 * time.Millisecond) // let t1 enqueue behind t2's lock
	// t2 closing the cycle must get ErrDeadlock and be aborted.
	err2 := t2.WritePage(0, fillPage(db, 4))
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err2)
	}
	if err := t2.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("victim handle must be done; got %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor write failed: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestMediaRecoveryMidWorkload(t *testing.T) {
	for _, cfg := range []Config{
		smallConfig(PageLogging, Force, true, DataStriping),
		smallConfig(PageLogging, NoForce, false, DataStriping),
		smallConfig(PageLogging, Force, true, ParityStriping),
	} {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			setup := mustBegin(t, db)
			imgs := make(map[PageID][]byte)
			for p := PageID(0); p < 16; p++ {
				img := fillPage(db, byte(p+3))
				if err := setup.WritePage(p, img); err != nil {
					t.Fatal(err)
				}
				imgs[p] = img
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			// An active transaction has stolen pages when the disk dies.
			active := mustBegin(t, db)
			activeImgs := make(map[PageID][]byte)
			for p := PageID(16); p < 24; p++ {
				img := fillPage(db, byte(p+0x77))
				if err := active.WritePage(p, img); err != nil {
					t.Fatal(err)
				}
				activeImgs[p] = img
			}

			for d := 0; d < db.NumDisks(); d++ {
				if err := db.FailDisk(d); err != nil {
					t.Fatal(err)
				}
				if err := db.RepairDisk(d); err != nil {
					t.Fatalf("disk %d: %v", d, err)
				}
			}
			// The active transaction can still commit, and everything
			// reads back.
			if err := active.Commit(); err != nil {
				t.Fatal(err)
			}
			for p, img := range activeImgs {
				imgs[p] = img
			}
			check := mustBegin(t, db)
			for p, img := range imgs {
				got, err := check.ReadPage(p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, img) {
					t.Fatalf("page %d corrupted by media recovery", p)
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMediaRecoveryThenAbort(t *testing.T) {
	// The hard case: a disk dies while a group is dirty, the array is
	// rebuilt, and THEN the owning transaction aborts — the twin-parity
	// undo must still restore the before-image, whichever block was lost.
	cfg := smallConfig(PageLogging, Force, true, DataStriping)
	for d := 0; d < 6; d++ {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		setup := mustBegin(t, db)
		base := fillPage(db, 0x21)
		if err := setup.WritePage(0, base); err != nil {
			t.Fatal(err)
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		active := mustBegin(t, db)
		if err := active.WritePage(0, fillPage(db, 0xEF)); err != nil {
			t.Fatal(err)
		}
		// Force the page to disk so the group is dirty.
		for p := PageID(24); p < 32; p++ {
			filler := mustBegin(t, db)
			if err := filler.WritePage(p, fillPage(db, byte(p))); err != nil {
				t.Fatal(err)
			}
			if err := filler.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		if err := db.RepairDisk(d); err != nil {
			t.Fatalf("disk %d: %v", d, err)
		}
		if err := active.Abort(); err != nil {
			t.Fatalf("disk %d: abort: %v", d, err)
		}
		check := mustBegin(t, db)
		got, err := check.ReadPage(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("disk %d: abort after media recovery lost the before-image", d)
		}
		if err := check.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatalf("disk %d: %v", d, err)
		}
	}
}

func TestCheckpointBoundsRedo(t *testing.T) {
	cfg := smallConfig(PageLogging, NoForce, true, DataStriping)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, db)
	if err := tx2.WritePage(1, fillPage(db, 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Only the post-checkpoint winner needs replaying.
	if rep.Redone != 1 {
		t.Fatalf("redone = %d, want 1", rep.Redone)
	}
	check := mustBegin(t, db)
	for p, seed := range map[PageID]byte{0: 1, 1: 2} {
		got, err := check.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillPage(db, seed)) {
			t.Fatalf("page %d wrong after recovery", p)
		}
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleCrashDuringRecoveryWindow(t *testing.T) {
	// Crash, recover, crash again immediately: the second recovery must
	// be a no-op on state (idempotent passes).
	for _, cfg := range allConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			setup := mustBegin(t, db)
			var base []byte
			if cfg.Logging == PageLogging {
				base = fillPage(db, 0x42)
				if err := setup.WritePage(3, base); err != nil {
					t.Fatal(err)
				}
			} else if err := setup.WriteRecord(3, 0, []byte{0x42}); err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			loser := mustBegin(t, db)
			for p := PageID(3); p < 12; p++ {
				if cfg.Logging == PageLogging {
					if err := loser.WritePage(p, fillPage(db, 0x99)); err != nil {
						t.Fatal(err)
					}
				} else if err := loser.WriteRecord(p, 0, []byte{0x99}); err != nil {
					t.Fatal(err)
				}
			}
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			check := mustBegin(t, db)
			if cfg.Logging == PageLogging {
				got, err := check.ReadPage(3)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, base) {
					t.Fatalf("page 3 wrong after double crash")
				}
			} else {
				got, err := check.ReadRecord(3, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != 0x42 {
					t.Fatalf("record 3.0 wrong after double crash")
				}
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWrongModeRejected(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if _, err := tx.ReadRecord(0, 0); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("err = %v, want ErrWrongMode", err)
	}
	if err := tx.WritePage(9999, fillPage(db, 1)); !errors.Is(err, ErrBadPage) {
		t.Fatalf("err = %v, want ErrBadPage", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v, want ErrTxDone", err)
	}
}

func TestCrashInvalidatesHandles(t *testing.T) {
	db, err := Open(smallConfig(PageLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if err := tx.WritePage(0, fillPage(db, 1)); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := tx.WritePage(1, fillPage(db, 2)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Begin on crashed db: err = %v, want ErrCrashed", err)
	}
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(); err != nil {
		t.Fatalf("Begin after recovery: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.DataDisks = -1 },
		func(c *Config) { c.NumPages = 2 },
		func(c *Config) { c.BufferFrames = 1 },
		func(c *Config) { c.PageSize = 32 },
		func(c *Config) { c.Logging = RecordLogging; c.RecordSize = c.PageSize },
		// A 256th member would share member 0's Q coefficient.
		func(c *Config) { c.QParity = true; c.DataDisks = 256 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Open(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	// Defaults fill zero fields.
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Config().DataDisks != 10 || db.Config().NumPages != 5000 {
		t.Fatalf("defaults not applied: %+v", db.Config())
	}
}

func TestStringers(t *testing.T) {
	for v, want := range map[interface{ String() string }]string{
		DataStriping: "data-striping", ParityStriping: "parity-striping",
		PageLogging: "page-logging", RecordLogging: "record-logging",
		Force: "force-toc", NoForce: "noforce-acc",
	} {
		if got := v.String(); got != want {
			t.Errorf("%T.String() = %q, want %q", v, got, want)
		}
	}
}

func TestRecordOpsDoneAndCrashChecks(t *testing.T) {
	db, err := Open(smallConfig(RecordLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	if err := tx.WriteRecord(0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteRecord(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteRecord(0, 0, []byte{2}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v, want ErrTxDone", err)
	}
	if err := tx.DeleteRecord(0, 0); !errors.Is(err, ErrTxDone) {
		t.Fatalf("err = %v, want ErrTxDone", err)
	}
	tx2 := mustBegin(t, db)
	db.Crash()
	if err := tx2.WriteRecord(0, 0, []byte{3}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if _, err := db.RepairDisks(0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("RepairDisks on crashed db: err = %v, want ErrCrashed", err)
	}
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCallerErrorsTakeNoLock(t *testing.T) {
	db, err := Open(smallConfig(RecordLogging, Force, true, DataStriping))
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, db)
	n := db.RecordsPerPage()
	long := make([]byte, db.cfg.RecordSize+1)
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"read slot -1", func() error { _, err := tx.ReadRecord(0, -1); return err }, record.ErrBadSlot},
		{"read slot n", func() error { _, err := tx.ReadRecord(0, n); return err }, record.ErrBadSlot},
		{"write slot -1", func() error { return tx.WriteRecord(0, -1, []byte{1}) }, record.ErrBadSlot},
		{"write slot n", func() error { return tx.WriteRecord(0, n, []byte{1}) }, record.ErrBadSlot},
		{"delete slot n", func() error { return tx.DeleteRecord(0, n) }, record.ErrBadSlot},
		{"write oversize", func() error { return tx.WriteRecord(0, 0, long) }, record.ErrBadLength},
		{"insert oversize", func() error { _, err := tx.InsertRecord(0, long); return err }, record.ErrBadLength},
	}
	for _, c := range cases {
		if err := c.call(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if held := tx.st.locks.HeldResources(tx.st.t.ID); len(held) != 0 {
			t.Fatalf("%s: transaction holds %v, want no lock", c.name, held)
		}
	}
	// An empty slot is the bare sentinel, read under the record's S lock.
	if _, err := tx.ReadRecord(0, 1); err != record.ErrEmptySlot {
		t.Fatalf("empty slot: err = %v, want the bare %v", err, record.ErrEmptySlot)
	}
	if held := tx.st.locks.HeldResources(tx.st.t.ID); len(held) != 1 || held[0] != lock.RecordResource(0, 1) {
		t.Fatalf("after the empty read the transaction holds %v, want [record 0.1]", held)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
