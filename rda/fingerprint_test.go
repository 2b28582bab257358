package rda

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/page"
	"repro/internal/record"
)

// The write-sequence fingerprint: a refactoring safety net below the
// level of any oracle.  One seeded workload — commits, aborts, re-steals,
// a checkpoint, disk deaths, a scrub over rotted blocks, a quiescent crash and three
// mid-I/O crashes, each followed by Recover — runs on seven configurations, and every
// platter write it causes (disk, block, operation, payload checksum,
// header) is folded, in order, into a hash per phase, next to the
// phase's read count.  A change that claims to leave the engine's
// behaviour alone must reproduce every hash and count below; a change
// that means to alter the I/O stream replaces the goldens with the
// values the failure message prints, and says why.
//
// The rebuild that ends the run (RepairDisks, or RebuildStep to
// completion) is held to its result instead of its order: the final
// platter — every block's payload, every header's state — is hashed.

// writeRecorder is a disk.Injector that fingerprints the I/O stream and,
// when armed, cuts it with a crash.
type writeRecorder struct {
	mu     sync.Mutex
	sum    uint64 // running FNV-1a over the phase's writes so far
	writes int64
	reads  int64
	// cut, when non-nil, crashes the engine at the first write of the
	// phase at or past cut.after (for a torn cut: the first payload write).
	cut *fpCut
}

// fpCut is a mid-I/O crash point: a clean cut before the write, or a torn
// write that persists the header and half the payload.
type fpCut struct {
	after      int64
	torn, head bool
}

// fold mixes the given words into the running hash.
func (r *writeRecorder) fold(words ...uint64) {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], r.sum)
	h.Write(b[:])
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	r.sum = h.Sum64()
}

// metaWords flattens the header fields recovery reads.
func metaWords(m disk.Meta) []uint64 {
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	return []uint64{uint64(m.State), uint64(m.Timestamp), uint64(m.Txn),
		flag(m.ChainSet), uint64(m.DirtyPage), flag(m.PairedSet)}
}

func (r *writeRecorder) Observe(a disk.Access) disk.Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a.Op.IsWrite() {
		var dec disk.Decision
		if c := r.cut; c != nil && r.writes >= c.after && (!c.torn || a.Op == disk.OpWrite) {
			r.cut = nil
			dec = disk.Decision{Torn: c.torn, TornHead: c.head,
				Panic: &fault.Crash{Writes: r.writes, Access: a, Torn: c.torn}}
			if !c.torn {
				return dec // the write never reaches the platter
			}
		}
		r.writes++
		words := []uint64{uint64(a.Disk), uint64(a.Block), uint64(a.Op)}
		if a.Op == disk.OpWrite {
			words = append(words, uint64(a.Data.Checksum()))
		}
		r.fold(append(words, metaWords(a.Meta)...)...)
		return dec
	}
	r.reads++
	return disk.Decision{}
}

// take returns the phase's fingerprint line and starts the next phase.
func (r *writeRecorder) take() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := fmt.Sprintf("w=%d r=%d h=%016x", r.writes, r.reads, r.sum)
	r.sum, r.writes, r.reads = 0, 0, 0
	return s
}

// fpTx is one open transaction of the fingerprint workload.
type fpTx struct {
	tx    *Tx
	pages []PageID
}

// fpWorkload drives the seeded transaction mix from one goroutine.  Open
// transactions write disjoint page sets, so no lock wait can block it.
type fpWorkload struct {
	t      *testing.T
	db     *DB
	rng    *rand.Rand
	open   []*fpTx
	locked map[PageID]bool
	seed   byte
}

func (w *fpWorkload) write(x *fpTx, n int) {
	for i := 0; i < n; i++ {
		p := PageID(w.rng.Intn(w.db.NumPages()))
		mine := false
		for _, q := range x.pages {
			mine = mine || q == p
		}
		if w.locked[p] && !mine {
			continue
		}
		w.seed++
		var err error
		if w.db.cfg.Logging == RecordLogging {
			// One slot of the page: a page collects several record images.
			err = x.tx.WriteRecord(p, int(w.seed)%w.db.RecordsPerPage(), fillPage(w.db, w.seed)[:w.db.cfg.RecordSize])
		} else {
			err = x.tx.WritePage(p, fillPage(w.db, w.seed))
		}
		if err != nil {
			w.t.Fatalf("write page %d: %v", p, err)
		}
		if !mine {
			x.pages = append(x.pages, p)
			w.locked[p] = true
		}
	}
}

// finish commits or aborts open transaction i.
func (w *fpWorkload) finish(i int, commit bool) {
	x := w.open[i]
	w.open = append(w.open[:i], w.open[i+1:]...)
	var err error
	if commit {
		err = x.tx.Commit()
	} else {
		err = x.tx.Abort()
	}
	if err != nil {
		w.t.Fatalf("finish (commit=%v): %v", commit, err)
	}
	for _, p := range x.pages {
		delete(w.locked, p)
	}
}

func (w *fpWorkload) step() {
	r := w.rng.Intn(10)
	switch {
	case len(w.open) == 0 || (r < 4 && len(w.open) < 3):
		x := &fpTx{tx: mustBegin(w.t, w.db)}
		w.open = append(w.open, x)
		w.write(x, 1+w.rng.Intn(6))
	case r < 6:
		w.write(w.open[w.rng.Intn(len(w.open))], 1+w.rng.Intn(2))
	case r < 9:
		w.finish(w.rng.Intn(len(w.open)), true)
	default:
		w.finish(w.rng.Intn(len(w.open)), false)
	}
}

// crashed forgets the open transactions: their handles died with the
// crash and they are the restart's losers.
func (w *fpWorkload) crashed() {
	w.open = nil
	w.locked = make(map[PageID]bool)
}

// platterSum hashes the whole platter: payload and header state of every
// block of every drive.
func platterSum(t *testing.T, db *DB) string {
	t.Helper()
	h := fnv.New64a()
	for d := 0; d < db.arr.NumDisks(); d++ {
		dd := db.arr.Disk(d)
		for b := 0; b < dd.NumBlocks(); b++ {
			data, err := dd.PeekData(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dd.PeekMeta(b)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
			h.Write([]byte{byte(m.State)})
		}
	}
	return fmt.Sprintf("platter=%016x", h.Sum64())
}

// fpScenario is one configuration of the fingerprint run.
type fpScenario struct {
	name string
	cfg  Config
	// fail maps a step of the first workload phase to the disk that dies
	// before it; scrubAt is the step before which two data blocks rot and
	// a full scrub cycle runs.  Blocks rot while the array is still whole:
	// repairs inside a degraded group are held to their outcome by the
	// scrub and soak tests, not to their read counts here.
	fail    map[int]int
	scrubAt int
	// cuts are the mid-I/O crash points of the hard restarts.
	cuts []fpCut
}

func fpScenarios() []fpScenario {
	pq := smallConfig(PageLogging, Force, true, DataStriping)
	pq.QParity = true
	// Record REDO: every write is one slot, so a restart replays several
	// record images per page.
	recordNoForce := smallConfig(RecordLogging, NoForce, true, DataStriping)
	recordNoForce.PackedLog = true
	// Torn head, clean cut, torn tail.
	cuts := []fpCut{{after: 60, torn: true, head: true}, {after: 45}, {after: 33, torn: true}}
	// A tear on top of two dead drives is a third erasure wherever the
	// three share a group: the restart then reports the group's pages in
	// LostPages (rdacrash -double -torn holds it to that) and the run's
	// closing every-page-reads-back check would have to excuse them, so
	// that scenario is cut cleanly.
	clean := []fpCut{{after: 60}, {after: 45}, {after: 33}}
	return []fpScenario{
		{name: "twin-raid5", cfg: smallConfig(PageLogging, Force, true, DataStriping), scrubAt: 20, cuts: cuts},
		{name: "twin-raid5-one-dead", cfg: smallConfig(PageLogging, Force, true, DataStriping),
			fail: map[int]int{12: 1}, scrubAt: 6, cuts: cuts},
		{name: "pq", cfg: pq, scrubAt: 20, cuts: cuts},
		{name: "pq-one-dead", cfg: pq, fail: map[int]int{12: 5}, scrubAt: 6, cuts: cuts},
		{name: "pq-two-dead", cfg: pq, fail: map[int]int{1: 0, 25: 3}, scrubAt: 0, cuts: clean},
		{name: "parity-striping-noforce", cfg: smallConfig(PageLogging, NoForce, true, ParityStriping),
			scrubAt: 20, cuts: cuts},
		{name: "record-noforce", cfg: recordNoForce, scrubAt: 20, cuts: cuts},
	}
}

// rotAndScrub corrupts two data blocks of different groups on live drives
// and runs one full cycle of the online scrubber over them.
func (w *fpWorkload) rotAndScrub(down []int) {
	db := w.db
	var rotted []page.GroupID
	for len(rotted) < 2 {
		p := page.PageID(w.rng.Intn(db.NumPages()))
		g := db.arr.GroupOf(p)
		dead := false
		for _, d := range down {
			dead = dead || db.arr.DataLoc(p).Disk == d
		}
		if dead || (len(rotted) == 1 && rotted[0] == g) {
			continue
		}
		if err := db.CorruptBlock(PageID(p)); err != nil {
			w.t.Fatal(err)
		}
		rotted = append(rotted, g)
	}
	for wrapped := false; !wrapped; {
		var err error
		if _, wrapped, err = db.ScrubStep(0); err != nil {
			w.t.Fatalf("scrub: %v", err)
		}
	}
	// One more rotted block, in a group the scrub has just certified, is
	// left for a transaction's read to find and repair.
	p := PageID(db.arr.GroupPages(rotted[0])[0])
	for _, d := range down {
		if db.arr.DataLoc(page.PageID(p)).Disk == d {
			return
		}
	}
	if w.locked[p] {
		return
	}
	if err := db.CorruptBlock(p); err != nil {
		w.t.Fatal(err)
	}
	db.pool.Discard(page.PageID(p))
	tx := mustBegin(w.t, db)
	var err error
	if db.cfg.Logging == RecordLogging {
		if _, err = tx.ReadRecord(p, 0); errors.Is(err, record.ErrEmptySlot) {
			err = nil // the page was read and repaired; its slot 0 is free
		}
	} else {
		_, err = tx.ReadPage(p)
	}
	if err != nil {
		w.t.Fatalf("read of rotted page %d: %v", p, err)
	}
	if err := tx.Commit(); err != nil {
		w.t.Fatal(err)
	}
}

// fpRun executes the scenario and returns one fingerprint line per phase,
// ending with the final platter after the chosen kind of rebuild.  With a
// log recorder it also returns one line per phase for the log records the
// phase appended.
func fpRun(t *testing.T, sc fpScenario, online bool, lr *logRecorder) (out, logOut []string) {
	t.Helper()
	db, err := Open(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &writeRecorder{}
	db.SetInjector(rec)
	lr.pin(db)
	w := &fpWorkload{t: t, db: db, rng: rand.New(rand.NewSource(1992)), locked: make(map[PageID]bool)}
	phase := func(name string) {
		out = append(out, name+": "+rec.take())
		if lr != nil {
			logOut = append(logOut, name+": "+lr.take(t, db))
		}
	}

	// Full-stripe load of the first half of the database.
	load := make([][]byte, db.NumPages()/2)
	for i := range load {
		load[i] = fillPage(db, byte(i))
		if sc.cfg.Logging == RecordLogging {
			// A formatted page with one record in slot 0.
			if err := record.Format(load[i], sc.cfg.RecordSize); err != nil {
				t.Fatal(err)
			}
			v, err := record.View(load[i])
			if err == nil {
				err = v.Write(0, fillPage(db, byte(i))[:sc.cfg.RecordSize])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := db.BulkLoad(0, load); err != nil {
		t.Fatal(err)
	}
	phase("load")

	// The workload, with the scenario's disk deaths, its scrub and a
	// checkpoint in the middle.
	var down []int
	for i := 0; i < 50; i++ {
		if d, ok := sc.fail[i]; ok {
			if err := db.FailDisk(d); err != nil {
				t.Fatal(err)
			}
			down = append(down, d)
		}
		if i == sc.scrubAt {
			w.rotAndScrub(down)
		}
		if i == 30 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		w.step()
	}
	phase("workload")

	// Restarts: a quiescent crash with losers open, then three mid-I/O
	// crashes — torn head, clean cut, torn tail — each after more work.
	restart := func(name string, cut *fpCut) {
		if cut == nil {
			db.Crash()
		} else {
			rec.mu.Lock()
			rec.cut = cut
			rec.mu.Unlock()
			crash := catchCrash(func() {
				for i := 0; i < 200; i++ {
					w.step()
				}
			})
			if crash == nil {
				t.Fatalf("%s: the crash point never fired", name)
			}
			phase(name + "-workload")
			db.CrashHard()
		}
		w.crashed()
		lr.crashed(db)
		if _, err := db.Recover(); err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		lr.pin(db)
		if err := db.VerifyRecovered(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		phase(name)
	}
	restart("restart", nil)
	for i := range sc.cuts {
		restart(fmt.Sprintf("restart-hard%d", i), &sc.cuts[i])
	}

	// A little more work on the recovered engine, then the rebuild, judged
	// by the platter it leaves.
	for i := 0; i < 15; i++ {
		w.step()
	}
	for len(w.open) > 0 {
		w.finish(0, true)
	}
	phase("workload-after")
	if len(down) > 0 {
		if online {
			for done := false; !done; {
				if done, err = db.RebuildStep(0); err != nil {
					t.Fatalf("rebuild: %v", err)
				}
			}
		} else if lost, err := db.RepairDisks(down...); err != nil || len(lost) > 0 {
			t.Fatalf("repair: lost %v, err %v", lost, err)
		}
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < db.NumPages(); p++ {
		if _, err := db.store.ReadPage(page.PageID(p), nil); err != nil {
			t.Fatalf("page %d unreadable after the run: %v", p, err)
		}
	}
	return append(out, platterSum(t, db)), logOut
}

// fingerprintGolden holds the fingerprints recorded at the commit before
// the P/Q unification (72c3d0f), keyed by scenario and rebuild kind, except
// for the phases later changes moved on purpose — CHANGES.md names the
// reason for each:
//
//   - PR 16 (torn repair lost its degraded copies): restart-hard2 of
//     twin-raid5-one-dead and restart-hard0/-hard2 of pq-one-dead.
//   - PR 17 (restart applies logged images a page at a time and writes only
//     what differs): every restart* phase of the two NoForce scenarios —
//     REDO reads each page once and skips the pages already current — and
//     the hard restarts of the FORCE scenarios in which pass 4 met a
//     before-image the platter already showed (twin-raid5 from hard1 on, the
//     three dead-disk scenarios from hard0 on; pq reproduces whole).  The
//     phases after such a restart keep their counts and move only their
//     hash (fewer timestamps were drawn), except on pq-two-dead, where the
//     write not made also leaves the other twin current and with it other
//     slots on the dead drives.  load, workload and the soft restart of
//     every FORCE scenario stand as recorded at 72c3d0f.
//   - PR 18 (restart reads each group's headers once; a hard restart's
//     block walk carries them): the r= of every restart* phase fell, except
//     the soft restarts of the three dead-disk scenarios, whose groups all
//     hold a block on a dead drive and are settled from the platter as
//     before.  No w=, h= or platter= moved.
//   - PR 23 (a FORCE commit flushes a clean group's pages logged-first,
//     steal-last, the redundancy carried from flip to flip): the four
//     FORCE scenarios that commit two resident pages of one group move from
//     the workload phase on.  In that phase exactly the demotions' header
//     rewrites went, one per equation and chain: twin-raid5 six chains,
//     w=159 → 153; pq six, w=244 → 232; twin-raid5-one-dead and
//     pq-one-dead one each, before the death, w=145 → 144 and w=209 → 207.
//     Every chain there is k = 2 — one flip, then the steal, which reads
//     the committed twin back from the platter — so no r= of that phase
//     moved (241, 351, 327, 408 as before); a chain saves reads from the
//     third page on.  Every later phase of those four moves with it: fewer
//     timestamps are drawn (every hash), a committed chain leaves its last
//     page's twin in the working state for the restart to launder where
//     the demotion had committed it in place (restart w= of the two healthy
//     scenarios), and the hard restarts cut at a write *index*, so with
//     fewer writes per commit they fall in a different step of the
//     workload.  load, pq-two-dead (every group degraded: no steal to
//     order) and the two NoForce scenarios (no EOT flush) reproduce byte
//     for byte.
//   - Degraded restarts settled by headers (Figure 7 over the walk's table,
//     Q headers standing in for dead P twins, one echo read per paired
//     winner): every phase from the soft restart on of the three dead-disk
//     scenarios.  The restarts read fewer blocks — no header is read twice,
//     no surviving slot is verified and recomputed where both indexes
//     answer, no tag scan runs where a Q partner holds the header — and the
//     P+Q ones write fewer, drawing no fresh timestamp for a group whose
//     Figure 7 winner stands (soft restart w=7 → 1 on pq-one-dead).  The
//     phases after a restart move their hash with the timestamps not drawn
//     and the headers not rewritten.  load, workload and every healthy
//     scenario reproduce byte for byte.
//   - A FORCE flush makes its degraded groups' before-images durable with
//     one log force before its first array write: restart-hard2 of
//     twin-raid5-one-dead, r=116 → 117.  Its cut falls mid-flush, so one
//     more before-image is on the log, and the restart reads that page
//     once to find it already holds the image.  No w=, h= or platter=
//     moved.
//   - A FORCE commit logs an after-image only for a page of a degraded
//     group, so it no longer reads a stolen page of a redundant group back
//     from the platter to log one: the r= of every workload phase of
//     twin-raid5 and pq fell (workload 241 → 221 and 327 → 307).  The
//     dead-disk scenarios' pre-death workload read no stolen page back, and
//     after the death every group is degraded and keeps its images.  No
//     w=, h= or platter= moved.
var fingerprintGolden = map[string][]string{
	"twin-raid5/repair": {
		"load: w=30 r=0 h=d5cb9f33f475de0c",
		"workload: w=153 r=221 h=2d301c4ac4055c10",
		"restart: w=17 r=24 h=92c9265413c3d649",
		"restart-hard0-workload: w=62 r=72 h=7a5276f6a18c7db0",
		"restart-hard0: w=32 r=141 h=f517bef544d83cce",
		"restart-hard1-workload: w=45 r=48 h=79a28c9b2ee035cd",
		"restart-hard1: w=28 r=125 h=4a5a2026e1447d15",
		"restart-hard2-workload: w=34 r=36 h=52a3114ed26c5eac",
		"restart-hard2: w=12 r=93 h=cdd23f497a856006",
		"workload-after: w=79 r=76 h=9460c7062911c202",
		"platter=c8750b527c479c04",
	},
	"twin-raid5-one-dead/repair": {
		"load: w=30 r=0 h=d5cb9f33f475de0c",
		"workload: w=144 r=351 h=38320cf6ab4e65a3",
		"restart: w=1 r=47 h=9379f8d7055a1b2d",
		"restart-hard0-workload: w=61 r=141 h=bb6afe30f62f8117",
		"restart-hard0: w=20 r=139 h=7f98390244cb2c94",
		"restart-hard1-workload: w=45 r=118 h=9a2c1480d211b261",
		"restart-hard1: w=9 r=111 h=9fdb4eee7a96c56b",
		"restart-hard2-workload: w=34 r=71 h=7aa97135a5d51edc",
		"restart-hard2: w=8 r=117 h=8ddb2da533f5cca0",
		"workload-after: w=54 r=146 h=d283fba7f4f1a9d1",
		"platter=20262563481c53f9",
	},
	"twin-raid5-one-dead/rebuild": {
		"load: w=30 r=0 h=d5cb9f33f475de0c",
		"workload: w=144 r=351 h=38320cf6ab4e65a3",
		"restart: w=1 r=47 h=9379f8d7055a1b2d",
		"restart-hard0-workload: w=61 r=141 h=bb6afe30f62f8117",
		"restart-hard0: w=20 r=139 h=7f98390244cb2c94",
		"restart-hard1-workload: w=45 r=118 h=9a2c1480d211b261",
		"restart-hard1: w=9 r=111 h=9fdb4eee7a96c56b",
		"restart-hard2-workload: w=34 r=71 h=7aa97135a5d51edc",
		"restart-hard2: w=8 r=117 h=8ddb2da533f5cca0",
		"workload-after: w=54 r=146 h=d283fba7f4f1a9d1",
		"platter=20262563481c53f9",
	},
	"pq/repair": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=232 r=307 h=f06f3006b564609f",
		"restart: w=34 r=24 h=3af3fcba776925dc",
		"restart-hard0-workload: w=61 r=66 h=b340b29d1d4351f7",
		"restart-hard0: w=32 r=115 h=bd3ee8dd68c9a2dc",
		"restart-hard1-workload: w=45 r=48 h=9fe4649c9573b14d",
		"restart-hard1: w=20 r=137 h=533da4f61ac3f2de",
		"restart-hard2-workload: w=34 r=40 h=ce8b6ac0f78b5be5",
		"restart-hard2: w=27 r=142 h=66f37ec64b01068b",
		"workload-after: w=86 r=83 h=29825fded393d95b",
		"platter=4f8ed2d0bdcfde21",
	},
	"pq-one-dead/repair": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=207 r=408 h=910eaaf5c25fa174",
		"restart: w=1 r=34 h=9379f8d7055a1b2d",
		"restart-hard0-workload: w=61 r=116 h=25e754a4031cc425",
		"restart-hard0: w=14 r=130 h=bbd133f29f36bfdd",
		"restart-hard1-workload: w=45 r=96 h=491eb9edf3a2d57a",
		"restart-hard1: w=16 r=130 h=1d75d622a47eb761",
		"restart-hard2-workload: w=34 r=66 h=2e804fd819891c21",
		"restart-hard2: w=4 r=118 h=d7e9086f14d3c4ab",
		"workload-after: w=75 r=106 h=ef18cc7c7ff2ed4f",
		"platter=482e3358a1882309",
	},
	"pq-one-dead/rebuild": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=207 r=408 h=910eaaf5c25fa174",
		"restart: w=1 r=34 h=9379f8d7055a1b2d",
		"restart-hard0-workload: w=61 r=116 h=25e754a4031cc425",
		"restart-hard0: w=14 r=130 h=bbd133f29f36bfdd",
		"restart-hard1-workload: w=45 r=96 h=491eb9edf3a2d57a",
		"restart-hard1: w=16 r=130 h=1d75d622a47eb761",
		"restart-hard2-workload: w=34 r=66 h=2e804fd819891c21",
		"restart-hard2: w=4 r=118 h=d7e9086f14d3c4ab",
		"workload-after: w=75 r=106 h=ef18cc7c7ff2ed4f",
		"platter=482e3358a1882309",
	},
	"pq-two-dead/repair": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=179 r=496 h=f10fc4b5365b25b2",
		"restart: w=0 r=34 h=0000000000000000",
		"restart-hard0-workload: w=60 r=164 h=1f9c89219de4f7c4",
		"restart-hard0: w=19 r=131 h=6e32dfb859c013e9",
		"restart-hard1-workload: w=45 r=126 h=c0d68390eeca5f22",
		"restart-hard1: w=11 r=121 h=80a7a21e8756f2bd",
		"restart-hard2-workload: w=33 r=75 h=eba61a95770b3a1b",
		"restart-hard2: w=14 r=116 h=382370b8e7c5ffb8",
		"workload-after: w=46 r=120 h=0fa7ee58bfcb15db",
		"platter=73a8d86103279aa6",
	},
	"pq-two-dead/rebuild": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=179 r=496 h=f10fc4b5365b25b2",
		"restart: w=0 r=34 h=0000000000000000",
		"restart-hard0-workload: w=60 r=164 h=1f9c89219de4f7c4",
		"restart-hard0: w=19 r=131 h=6e32dfb859c013e9",
		"restart-hard1-workload: w=45 r=126 h=c0d68390eeca5f22",
		"restart-hard1: w=11 r=121 h=80a7a21e8756f2bd",
		"restart-hard2-workload: w=33 r=75 h=eba61a95770b3a1b",
		"restart-hard2: w=14 r=116 h=382370b8e7c5ffb8",
		"workload-after: w=46 r=120 h=0fa7ee58bfcb15db",
		"platter=73a8d86103279aa6",
	},
	"parity-striping-noforce/repair": {
		"load: w=48 r=48 h=e0b7c38ccf14711d",
		"workload: w=175 r=321 h=3d67b7994591e458",
		"restart: w=3 r=41 h=73b71d0ade77058f",
		"restart-hard0-workload: w=62 r=98 h=9cd0547b7d31f8bb",
		"restart-hard0: w=11 r=114 h=49e449431b12f074",
		"restart-hard1-workload: w=45 r=83 h=e25c054233911b9b",
		"restart-hard1: w=18 r=99 h=0f69d72f36594aa9",
		"restart-hard2-workload: w=34 r=50 h=eee3afcb6eb9fca2",
		"restart-hard2: w=21 r=111 h=dd8dfa80f31bec1b",
		"workload-after: w=52 r=95 h=52d1cd964fdbc08c",
		"platter=35c026feb47e5d29",
	},
	"record-noforce/repair": {
		"load: w=30 r=0 h=a96d9ce674409459",
		"workload: w=175 r=331 h=17900df6ff9466f9",
		"restart: w=3 r=41 h=480bddb6447cffc4",
		"restart-hard0-workload: w=61 r=98 h=dbc4b2b09a85196f",
		"restart-hard0: w=11 r=124 h=17ecc04582c485a6",
		"restart-hard1-workload: w=45 r=84 h=32aa6a3c152b77f5",
		"restart-hard1: w=20 r=104 h=829a45bdbd20e4d4",
		"restart-hard2-workload: w=34 r=64 h=801d3038309d6ad6",
		"restart-hard2: w=9 r=96 h=f8b40f542949f1ad",
		"workload-after: w=55 r=97 h=1f48d68f6ba55c95",
		"platter=8d8953249965cbbf",
	},
}

func TestWriteSequenceFingerprint(t *testing.T) {
	for _, sc := range fpScenarios() {
		for _, online := range []bool{false, true} {
			if online && len(sc.fail) == 0 {
				continue // nothing to rebuild: the run is the same one
			}
			kind := "repair"
			if online {
				kind = "rebuild"
			}
			name := sc.name + "/" + kind
			t.Run(name, func(t *testing.T) {
				got, _ := fpRun(t, sc, online, nil)
				want := fingerprintGolden[name]
				if !slices.Equal(got, want) {
					t.Errorf("fingerprint differs from the golden\n got: %q\nwant: %q", got, want)
				}
			})
		}
	}
}
