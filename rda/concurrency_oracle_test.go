package rda

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// This file is the serializability oracle: concurrent histories of the
// group-latched engine are recorded and replayed against a fresh
// single-goroutine engine in CommitSeq order, then the two final states
// are diffed byte-for-byte.  Strict 2PL promises that the concurrent
// execution is equivalent to SOME serial order; the engine's CommitSeq
// (assigned inside the latch-held EOT section) names that order, so a
// single-threaded replay in CommitSeq order must reproduce the exact
// final bytes.  The transformation each transaction applies is
// non-commutative (state' = state*PRIME + delta), so any latching bug
// that lets two committers interleave on a page produces a different
// byte sequence, not a coincidentally equal one.

// oraclePrime makes the per-page transformation order-sensitive.
const oraclePrime = 1099087573

// oracleOp is one page update: the page and the delta folded into its
// counter.  The written value is derived from the read value, so the op
// stream plus the serialization order fully determine the final state.
type oracleOp struct {
	page  PageID
	delta uint64
}

// oracleTxn is one committed transaction of the recorded history.
type oracleTxn struct {
	seq int64
	ops []oracleOp
}

// oracleConfig is the soak geometry: small pages and few frames so
// eviction steals and demotions fire constantly, many groups so disjoint
// workers really run in parallel.
func oracleConfig() Config {
	return Config{
		DataDisks:    4,
		NumPages:     64,
		PageSize:     64,
		BufferFrames: 8,
		Logging:      PageLogging,
		EOT:          NoForce,
		RDA:          true,
		LogPageSize:  256,
	}
}

// counterOf extracts the page's logical state from its bytes.
func counterOf(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// pageFromCounter renders the full deterministic page image for a
// logical state: the counter followed by a fill derived from it, so a
// byte-level diff checks more than the first eight bytes.
func pageFromCounter(size int, c uint64) []byte {
	out := make([]byte, size)
	binary.BigEndian.PutUint64(out, c)
	h := c ^ 0x9E3779B97F4A7C15
	for i := 8; i < size; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		out[i] = byte(h >> 56)
	}
	return out
}

// applyOps runs one transaction's ops on tx: read each page, fold the
// delta into its counter, write the derived image back.
func applyOps(tx *Tx, size int, ops []oracleOp) error {
	for _, op := range ops {
		b, err := tx.ReadPage(op.page)
		if err != nil {
			return err
		}
		next := counterOf(b)*oraclePrime + op.delta
		if err := tx.WritePage(op.page, pageFromCounter(size, next)); err != nil {
			return err
		}
	}
	return nil
}

// runOracleWorkload drives `workers` goroutines of `txnsEach`
// transactions against db, each transaction applying opsPer ops drawn by
// a per-worker deterministic rng from the worker's page set.  Deadlock
// victims retry the same ops.  It returns the committed history sorted
// by CommitSeq.
func runOracleWorkload(t *testing.T, db *DB, pagesFor func(worker int) []PageID, workers, txnsEach, opsPer int, seed int64) []oracleTxn {
	t.Helper()
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
			rng := rand.New(rand.NewSource(seed + int64(w)))
			pages := pagesFor(w)
			for n := 0; n < txnsEach; n++ {
				ops := make([]oracleOp, opsPer)
				for i := range ops {
					ops[i] = oracleOp{
						page:  pages[rng.Intn(len(pages))],
						delta: rng.Uint64() | 1,
					}
				}
				// A sixth of the transactions abort on purpose: aborted
				// work must leave no trace in the final state.
				abort := rng.Intn(6) == 0
				// Deadlock victims retry the same ops; a transaction that
				// stays a victim is abandoned — it never committed, so
				// the history correctly omits it.
				const maxAttempts = 500
				for attempt := 0; attempt < maxAttempts; attempt++ {
					if attempt > 0 {
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					}
					tx, err := db.Begin()
					if err != nil {
						errs <- fmt.Errorf("worker %d begin: %w", w, err)
						return
					}
					if err := applyOps(tx, size, ops); err != nil {
						if errors.Is(err, ErrDeadlock) {
							continue // already aborted; retry the same ops
						}
						errs <- fmt.Errorf("worker %d txn %d: %w", w, n, err)
						return
					}
					if abort {
						if err := tx.Abort(); err != nil {
							errs <- fmt.Errorf("worker %d abort: %w", w, err)
							return
						}
						break
					}
					if err := tx.Commit(); err != nil {
						if errors.Is(err, ErrDeadlock) {
							continue
						}
						errs <- fmt.Errorf("worker %d commit: %w", w, err)
						return
					}
					mu.Lock()
					history = append(history, oracleTxn{seq: tx.CommitSeq(), ops: ops})
					mu.Unlock()
					break
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sort.Slice(history, func(i, j int) bool { return history[i].seq < history[j].seq })
	for i := 1; i < len(history); i++ {
		if history[i].seq == history[i-1].seq {
			t.Fatalf("duplicate CommitSeq %d", history[i].seq)
		}
	}
	return history
}

// replayHistory re-executes the committed history on a fresh
// single-goroutine engine in CommitSeq order.
func replayHistory(t *testing.T, cfg Config, history []oracleTxn) *DB {
	t.Helper()
	ref, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	size := ref.PageSize()
	for _, h := range history {
		tx, err := ref.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := applyOps(tx, size, h.ops); err != nil {
			t.Fatalf("replay seq %d: %v", h.seq, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("replay commit seq %d: %v", h.seq, err)
		}
	}
	return ref
}

// diffStates compares the two engines byte-for-byte, checks both parity
// invariants, and requires every group's Dirty_Set entry cleared.
func diffStates(t *testing.T, got, want *DB) {
	t.Helper()
	// Flush buffered state so the platter comparison sees everything.
	if err := got.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := want.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < got.NumPages(); p++ {
		g, err := got.PeekPage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.PeekPage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("page %d: concurrent run diverges from CommitSeq-order replay (counter %d vs %d)",
				p, counterOf(g), counterOf(w))
		}
	}
	if err := got.VerifyParity(); err != nil {
		t.Errorf("concurrent engine parity: %v", err)
	}
	if err := want.VerifyParity(); err != nil {
		t.Errorf("replay engine parity: %v", err)
	}
	for p := 0; p < got.NumPages(); p++ {
		info, err := got.InspectGroup(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		if info.Dirty {
			t.Errorf("group %d still dirty after quiesce", info.Group)
		}
	}
}

// TestSerializabilityOracleDisjoint runs workers over disjoint page
// ranges — the embarrassingly parallel case the group latches exist for —
// and replays the history.
func TestSerializabilityOracleDisjoint(t *testing.T) {
	cfg := oracleConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	per := cfg.NumPages / workers
	pagesFor := func(w int) []PageID {
		out := make([]PageID, per)
		for i := range out {
			out[i] = PageID(w*per + i)
		}
		return out
	}
	history := runOracleWorkload(t, db, pagesFor, workers, 25, 6, 42)
	ref := replayHistory(t, cfg, history)
	diffStates(t, db, ref)
}

// TestSerializabilityOracleOverlapping runs every worker over the whole
// page set, so 2PL conflicts and deadlock-victim retries are constant,
// and replays the history.
func TestSerializabilityOracleOverlapping(t *testing.T) {
	cfg := oracleConfig()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]PageID, cfg.NumPages)
	for i := range all {
		all[i] = PageID(i)
	}
	pagesFor := func(int) []PageID { return all }
	history := runOracleWorkload(t, db, pagesFor, 6, 20, 4, 7)
	if len(history) == 0 {
		t.Fatal("no transaction committed")
	}
	ref := replayHistory(t, cfg, history)
	diffStates(t, db, ref)
}

// TestSerializabilityOracleForce repeats the overlapping soak under the
// FORCE discipline, whose commit path flushes every modified page under
// the transaction's latched group set.
func TestSerializabilityOracleForce(t *testing.T) {
	cfg := oracleConfig()
	cfg.EOT = Force
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]PageID, cfg.NumPages)
	for i := range all {
		all[i] = PageID(i)
	}
	history := runOracleWorkload(t, db, func(int) []PageID { return all }, 6, 15, 4, 99)
	ref := replayHistory(t, cfg, history)
	diffStates(t, db, ref)
}

// crashOracleWorkload is the concurrent workload the crash tests
// interrupt: workers loop blind writes of deterministic images and
// record what they committed; an ErrCrashed return stops the worker.
// Because a Commit in flight when Crash takes the exclusive gate
// completes before the gate is granted, a nil Commit return means
// durably committed and any error means not committed — there is no
// ambiguous outcome for the oracle (the fault-injection crash tests in
// rda/crashcheck cover mid-commit crashes).
//
// Group commit reintroduces one ambiguity, in the safe direction only:
// a transaction whose EOT reached the log tail (CommitSeq assigned) but
// whose Commit then returned ErrCrashed may or may not have been covered
// by a batched force before the crash.  Those transactions land in
// ambig; the group-commit oracle accepts either outcome for them while
// still holding every nil-return Commit to full durability.
type crashHistory struct {
	mu    sync.Mutex
	txns  []oracleTxn // delta reused as the image seed for blind writes
	ambig []oracleTxn // EOT appended, ack lost to the crash: may be durable
}

func runCrashWorkload(db *DB, workers int, seed int64, hist *crashHistory, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	size := db.PageSize()
	npages := db.NumPages()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.Begin()
				if err != nil {
					return // ErrCrashed: done
				}
				ops := make([]oracleOp, 3)
				ok := true
				for i := range ops {
					ops[i] = oracleOp{page: PageID(rng.Intn(npages)), delta: rng.Uint64()}
					if err := tx.WritePage(ops[i].page, pageFromCounter(size, ops[i].delta)); err != nil {
						if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrCrashed) || errors.Is(err, ErrTxDone) {
							ok = false
							break
						}
						return
					}
				}
				if !ok {
					continue
				}
				if err := tx.Commit(); err != nil {
					if tx.CommitSeq() > 0 {
						// The EOT was appended before the commit failed:
						// under group commit the fold-in races the crash,
						// so the transaction may silently be durable.
						hist.mu.Lock()
						hist.ambig = append(hist.ambig, oracleTxn{seq: tx.CommitSeq(), ops: ops})
						hist.mu.Unlock()
					}
					continue
				}
				hist.mu.Lock()
				hist.txns = append(hist.txns, oracleTxn{seq: tx.CommitSeq(), ops: ops})
				hist.mu.Unlock()
			}
		}(w)
	}
	return &wg
}

// verifyCrashOracle checks every page equals the image of the last
// committed write in CommitSeq order (or zero if never written).
func verifyCrashOracle(t *testing.T, db *DB, hist *crashHistory) {
	t.Helper()
	hist.mu.Lock()
	txns := append([]oracleTxn(nil), hist.txns...)
	hist.mu.Unlock()
	sort.Slice(txns, func(i, j int) bool { return txns[i].seq < txns[j].seq })
	want := make(map[PageID]uint64)
	for _, h := range txns {
		for _, op := range h.ops {
			want[op.page] = op.delta
		}
	}
	size := db.PageSize()
	for p := 0; p < db.NumPages(); p++ {
		got, err := db.PeekPage(PageID(p))
		if err != nil {
			t.Fatal(err)
		}
		exp := make([]byte, size)
		if c, ok := want[PageID(p)]; ok {
			exp = pageFromCounter(size, c)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("page %d diverges from committed history after crash recovery", p)
		}
	}
}

// runWithWatchdog fails the test if fn does not return within the
// deadline — the shape of failure a Crash/latch deadlock produces.
func runWithWatchdog(t *testing.T, name string, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v: deadlock", name, d)
	}
}

// TestCrashDuringConcurrentTransactions is the regression test for the
// old CrashHard bug (it re-created the engine mutex out from under
// in-flight holders, a latent double-unlock/deadlock): a crash taken
// while transactions are in flight must quiesce them via the recovery
// gate — every worker unwinds promptly with ErrCrashed, Recover succeeds,
// and the committed history survives.
func TestCrashDuringConcurrentTransactions(t *testing.T) {
	for _, hard := range []bool{false, true} {
		name := "Crash"
		if hard {
			name = "CrashHard"
		}
		t.Run(name, func(t *testing.T) {
			cfg := oracleConfig()
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hist := &crashHistory{}
			stop := make(chan struct{})
			wg := runCrashWorkload(db, 8, 1234, hist, stop)
			// Let the workload build up in-flight state, then crash
			// under it.
			for {
				hist.mu.Lock()
				n := len(hist.txns)
				hist.mu.Unlock()
				if n >= 50 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			runWithWatchdog(t, "crash under load", 30*time.Second, func() {
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
			verifyCrashOracle(t, db, hist)
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

// TestRebuildRacesLiveTransactions fails a disk under a live concurrent
// workload, runs the online rebuild worker while the workload keeps
// going, and checks the restored array against the committed history —
// the rebuild's latched batches, under the shared gate, must run beside
// live transactions without corrupting either side.
func TestRebuildRacesLiveTransactions(t *testing.T) {
	cfg := oracleConfig()
	cfg.Workers = 4 // parallel batch reconstruction under live load
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := &crashHistory{}
	stop := make(chan struct{})
	wg := runCrashWorkload(db, 6, 555, hist, stop)
	for {
		hist.mu.Lock()
		n := len(hist.txns)
		hist.mu.Unlock()
		if n >= 30 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	rebuilt := rebuildInBackground(db)
	runWithWatchdog(t, "online rebuild under load", 60*time.Second, func() {
		if err := <-rebuilt; err != nil {
			t.Errorf("rebuild: %v", err)
		}
	})
	close(stop)
	runWithWatchdog(t, "worker drain", 30*time.Second, wg.Wait)
	if got := db.Health(); got.String() != "healthy" {
		t.Fatalf("health after rebuild: %v", got)
	}
	// Quiesce buffered state, then hold the survivors to the history.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verifyCrashOracle(t, db, hist)
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}
