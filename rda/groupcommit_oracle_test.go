package rda

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
)

// Group-commit variants of the serializability and crash oracles.  Under
// GroupCommitWindow > 0 a committing transaction appends its after-images
// and EOT unforced and then waits for a batched force to cover the EOT;
// concurrent committers fold into one log write.  The oracle contracts:
//
//   - Serializability is untouched: the CommitSeq history produced under
//     batched forces, replayed on a fresh single-threaded engine with no
//     group commit and no queues, byte-compares equal.
//   - Durability acks are never early: a crash landing between a batched
//     force and the last ack may leave transactions whose fold-in reached
//     the platter but whose Commit reported ErrCrashed (failed-but-durable
//     is allowed), but no transaction whose Commit returned nil may lose
//     its effects (committed-but-lost is a violation).

// gcOracleConfig is the oracle geometry with the async pipeline and
// batched forces on top.
func gcOracleConfig(eot EOTDiscipline) Config {
	cfg := oracleConfig()
	cfg.EOT = eot
	cfg.GroupCommitWindow = time.Millisecond
	cfg.QueueDepth = 4
	return cfg
}

// TestSerializabilityOracleGroupCommit runs the overlapping soak — the
// max-conflict case — with batched forces and queued drives, then
// replays the CommitSeq history on a fresh default engine (synchronous
// drives, one force per commit) and byte-compares the final states.
func TestSerializabilityOracleGroupCommit(t *testing.T) {
	for _, eot := range []struct {
		name string
		mode EOTDiscipline
		// Random-page FORCE commits carry parity-covered steals, whose
		// EOT is forced inline (see commitAttempt), so only the ¬FORCE
		// soak is guaranteed to fold forces; the stripe test below
		// covers FORCE-mode batching.
		wantJoins bool
	}{{"NoForce", NoForce, true}, {"Force", Force, false}} {
		t.Run(eot.name, func(t *testing.T) {
			cfg := gcOracleConfig(eot.mode)
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]PageID, cfg.NumPages)
			for i := range all {
				all[i] = PageID(i)
			}
			history := runOracleWorkload(t, db, func(int) []PageID { return all }, 6, 15, 4, 2024)
			if len(history) == 0 {
				t.Fatal("no transaction committed")
			}
			// The window must actually have folded concurrent forces —
			// otherwise this test degenerates to the plain oracle.
			if eot.wantJoins && db.forcer.Joins() == 0 {
				t.Errorf("no commit joined another's force batch (batches=%d); window too small for the workload",
					db.forcer.Batches())
			}
			ref := oracleConfig()
			ref.EOT = eot.mode
			diffStates(t, db, replayHistory(t, ref, history))
		})
	}
}

// TestSerializabilityOracleGroupCommitStripes drives the FORCE-mode fast
// path end to end: every transaction rewrites one whole stripe, so the
// commit flush coalesces into core.WriteStripeLogged and the EOT rides
// the batched force.  Workers own disjoint groups (no 2PL conflicts), so
// their commits overlap maximally inside the window; the history still
// replays byte-identically on a synchronous engine.
func TestSerializabilityOracleGroupCommitStripes(t *testing.T) {
	cfg := gcOracleConfig(Force)
	// Every worker pins a whole stripe at once; give the pool headroom.
	cfg.BufferFrames = 32
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Group the page space into stripes as the array lays them out.
	stripes := make(map[page.GroupID][]PageID)
	var order []page.GroupID
	for p := 0; p < cfg.NumPages; p++ {
		g := db.arr.GroupOf(page.PageID(p))
		if len(stripes[g]) == 0 {
			order = append(order, g)
		}
		stripes[g] = append(stripes[g], PageID(p))
	}
	const workers = 4
	pagesFor := func(w int) [][]PageID {
		var own [][]PageID
		for i := w; i < len(order); i += workers {
			own = append(own, stripes[order[i]])
		}
		return own
	}
	size := db.PageSize()
	var (
		mu      sync.Mutex
		history []oracleTxn
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(9000 + int64(w)))
			own := pagesFor(w)
			for n := 0; n < 20; n++ {
				stripe := own[rng.Intn(len(own))]
				ops := make([]oracleOp, len(stripe))
				for i, p := range stripe {
					ops[i] = oracleOp{page: p, delta: rng.Uint64() | 1}
				}
				tx, err := db.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := applyOps(tx, size, ops); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				history = append(history, oracleTxn{seq: tx.CommitSeq(), ops: ops})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.forcer.Joins() == 0 {
		t.Errorf("no stripe commit joined another's force batch (batches=%d)", db.forcer.Batches())
	}
	sort.Slice(history, func(i, j int) bool { return history[i].seq < history[j].seq })
	ref := oracleConfig()
	ref.EOT = Force
	diffStates(t, db, replayHistory(t, ref, history))
}

// verifyGroupCommitCrashOracle holds the recovered state to the relaxed
// group-commit contract.  For every page the final image must be the
// last write (in CommitSeq order) of some durable transaction, where the
// durable set is: all recorded nil-return commits, plus any subset of
// the ambiguous ones (EOT appended, ack lost).  Blind writes plus 2PL
// give each page a linear writer chain, so the check reduces to: the
// page equals the last recorded image for it, or the image of an
// ambiguous transaction that out-sequences it.  A page showing anything
// older than its last recorded commit means an acknowledged fold-in
// never reached the platter — the violation this oracle exists to catch.
//
// initial holds every page's image before the workload started.  It is
// candidate zero of every page no acknowledged commit wrote: a page
// written only by transactions that died in the force-to-ack gap, all of
// which resolved as losers, correctly keeps it.
func verifyGroupCommitCrashOracle(t *testing.T, db *DB, hist *crashHistory, initial [][]byte) {
	t.Helper()
	hist.mu.Lock()
	txns := append([]oracleTxn(nil), hist.txns...)
	ambig := append([]oracleTxn(nil), hist.ambig...)
	hist.mu.Unlock()
	sort.Slice(txns, func(i, j int) bool { return txns[i].seq < txns[j].seq })

	type lastWrite struct {
		seq   int64
		delta uint64
	}
	lastRec := make(map[PageID]lastWrite)
	for _, h := range txns {
		for _, op := range h.ops {
			lastRec[op.page] = lastWrite{seq: h.seq, delta: op.delta}
		}
	}
	// Candidate counters per page: the last recorded commit, plus every
	// ambiguous transaction's last write to the page unless a recorded
	// commit out-sequences it.
	cand := make(map[PageID]map[uint64]bool)
	add := func(p PageID, d uint64) {
		if cand[p] == nil {
			cand[p] = make(map[uint64]bool)
		}
		cand[p][d] = true
	}
	for p, lw := range lastRec {
		add(p, lw.delta)
	}
	for _, h := range ambig {
		perPage := make(map[PageID]uint64)
		for _, op := range h.ops {
			perPage[op.page] = op.delta
		}
		for p, d := range perPage {
			if lw, ok := lastRec[p]; ok && h.seq < lw.seq {
				continue
			}
			add(p, d)
		}
	}

	size := db.PageSize()
	for p := 0; p < db.NumPages(); p++ {
		got, err := db.PeekPage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		cs := cand[PageID(p)]
		if len(cs) == 0 {
			if !bytes.Equal(got, initial[p]) {
				t.Errorf("page %d: written only by losers yet changed by recovery", p)
			}
			continue
		}
		_, recorded := lastRec[PageID(p)]
		ok := !recorded && bytes.Equal(got, initial[p])
		for c := range cs {
			if bytes.Equal(got, pageFromCounter(size, c)) {
				ok = true
				break
			}
		}
		if !ok {
			if recorded {
				t.Errorf("page %d: acknowledged commit lost after crash recovery (counter %d not among %d candidate(s))",
					p, counterOf(got), len(cs))
			} else {
				t.Errorf("page %d: state matches no ambiguous candidate (counter %d)", p, counterOf(got))
			}
		}
	}
}

// TestGroupCommitCrashDurability crashes the engine while workers are
// parked inside Forcer.Force — between a batched force and its last ack —
// and checks that recovery honors every acknowledged commit.  The
// ambiguous transactions (ErrCrashed with an assigned CommitSeq) are the
// crash landing exactly in that gap; they may legitimately resolve
// either way.
func TestGroupCommitCrashDurability(t *testing.T) {
	for _, hard := range []bool{false, true} {
		name := "Crash"
		if hard {
			name = "CrashHard"
		}
		t.Run(name, func(t *testing.T) {
			cfg := gcOracleConfig(NoForce)
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			initial := make([][]byte, db.NumPages())
			for p := range initial {
				if initial[p], err = db.PeekPage(PageID(p)); err != nil {
					t.Fatal(err)
				}
			}
			hist := &crashHistory{}
			stop := make(chan struct{})
			wg := runCrashWorkload(db, 8, 4321, hist, stop)
			// Wait until the workload is deep in group-commit traffic —
			// with a 1ms window and eight workers there are always
			// commits parked in the force gap when the crash hits.
			for {
				hist.mu.Lock()
				n := len(hist.txns)
				hist.mu.Unlock()
				if n >= 60 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			runWithWatchdog(t, "crash under group commit", 30*time.Second, func() {
				if hard {
					db.CrashHard()
				} else {
					db.Crash()
				}
			})
			runWithWatchdog(t, "worker drain", 30*time.Second, wg.Wait)
			close(stop)
			if _, err := db.Begin(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Begin on crashed db: %v, want ErrCrashed", err)
			}
			if _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := db.VerifyRecovered(); err != nil {
				t.Fatal(err)
			}
			verifyGroupCommitCrashOracle(t, db, hist, initial)
			hist.mu.Lock()
			t.Logf("%d acknowledged commit(s), %d ambiguous (crash in the force-to-ack gap)",
				len(hist.txns), len(hist.ambig))
			hist.mu.Unlock()
			// The engine must be fully usable again.
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.WritePage(0, pageFromCounter(cfg.PageSize, 777)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
