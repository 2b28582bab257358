package rda

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/page"
)

// The write-sequence fingerprint: a refactoring safety net below the
// level of any oracle.  One seeded workload — commits, aborts, re-steals,
// a checkpoint, disk deaths, a scrub over rotted blocks, a quiescent crash and three
// mid-I/O crashes, each followed by Recover — runs on four configurations, and every
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
		if err := x.tx.WritePage(p, fillPage(w.db, w.seed)); err != nil {
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
			data, err := dd.PeekData(b)
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
	if _, err := tx.ReadPage(p); err != nil {
		w.t.Fatalf("read of rotted page %d: %v", p, err)
	}
	if err := tx.Commit(); err != nil {
		w.t.Fatal(err)
	}
}

// fpRun executes the scenario and returns one fingerprint line per phase,
// ending with the final platter after the chosen kind of rebuild.
func fpRun(t *testing.T, sc fpScenario, online bool) []string {
	t.Helper()
	db, err := Open(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &writeRecorder{}
	db.SetInjector(rec)
	w := &fpWorkload{t: t, db: db, rng: rand.New(rand.NewSource(1992)), locked: make(map[PageID]bool)}
	var out []string
	phase := func(name string) { out = append(out, name+": "+rec.take()) }

	// Full-stripe load of the first half of the database.
	load := make([][]byte, db.NumPages()/2)
	for i := range load {
		load[i] = fillPage(db, byte(i))
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
		if _, err := db.Recover(); err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
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
	return append(out, platterSum(t, db))
}

// fingerprintGolden holds the fingerprints recorded at the commit before
// the P/Q unification (72c3d0f), keyed by scenario and rebuild kind.  Every
// clean-cut phase still stands as recorded there.  Re-recorded when torn
// repair lost its degraded copies (PR 16) are three torn-cut restarts, whose
// write stream changed — CHANGES.md names the decision behind each:
// restart-hard2 of twin-raid5-one-dead (workload-after follows: one
// timestamp fewer is drawn) and restart-hard0/-hard2 of pq-one-dead.
var fingerprintGolden = map[string][]string{
	"twin-raid5/repair": {
		"load: w=30 r=0 h=d5cb9f33f475de0c",
		"workload: w=159 r=241 h=53251ff540f07a01",
		"restart: w=14 r=48 h=626591a2172af98d",
		"restart-hard0-workload: w=61 r=73 h=e4aae13d6308708e",
		"restart-hard0: w=31 r=163 h=61010321b9c245fe",
		"restart-hard1-workload: w=45 r=63 h=611dedd0099f8039",
		"restart-hard1: w=26 r=152 h=ed3fbe71790a17ce",
		"restart-hard2-workload: w=34 r=43 h=29e585b0904d2754",
		"restart-hard2: w=17 r=146 h=d1ab4df1a1a22b77",
		"workload-after: w=51 r=57 h=4e87c57bbfeafd76",
		"platter=7fb5970735989d7d",
	},
	"twin-raid5-one-dead/repair": {
		"load: w=30 r=0 h=d5cb9f33f475de0c",
		"workload: w=145 r=351 h=3a7b3987bf3088bd",
		"restart: w=1 r=75 h=9379f8d7055a1b2d",
		"restart-hard0-workload: w=61 r=141 h=4401d276bbbafc23",
		"restart-hard0: w=24 r=171 h=fd942390d92d77b6",
		"restart-hard1-workload: w=45 r=118 h=657906be2fbc7210",
		"restart-hard1: w=11 r=158 h=8371dbcf811f2dee",
		"restart-hard2-workload: w=34 r=71 h=0b6aff28b61646ec",
		"restart-hard2: w=10 r=149 h=6401ae6313abc0fe",
		"workload-after: w=54 r=146 h=45414919df2bc3da",
		"platter=0576e7e8e3195df9",
	},
	"twin-raid5-one-dead/rebuild": {
		"load: w=30 r=0 h=d5cb9f33f475de0c",
		"workload: w=145 r=351 h=3a7b3987bf3088bd",
		"restart: w=1 r=75 h=9379f8d7055a1b2d",
		"restart-hard0-workload: w=61 r=141 h=4401d276bbbafc23",
		"restart-hard0: w=24 r=171 h=fd942390d92d77b6",
		"restart-hard1-workload: w=45 r=118 h=657906be2fbc7210",
		"restart-hard1: w=11 r=158 h=8371dbcf811f2dee",
		"restart-hard2-workload: w=34 r=71 h=0b6aff28b61646ec",
		"restart-hard2: w=10 r=149 h=6401ae6313abc0fe",
		"workload-after: w=54 r=146 h=45414919df2bc3da",
		"platter=0576e7e8e3195df9",
	},
	"pq/repair": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=244 r=327 h=3fc1399813a2c390",
		"restart: w=28 r=48 h=d8987035f3b4e6fa",
		"restart-hard0-workload: w=61 r=66 h=7da6e31d6ab8a24c",
		"restart-hard0: w=25 r=157 h=514f0e8b76c7319d",
		"restart-hard1-workload: w=45 r=58 h=f22bf7c40e0f06ee",
		"restart-hard1: w=25 r=164 h=d3de3f2a6f844710",
		"restart-hard2-workload: w=34 r=36 h=85c3ed2a35ed3611",
		"restart-hard2: w=23 r=169 h=d9f794106158d3ed",
		"workload-after: w=109 r=112 h=4025aba69ee37698",
		"platter=75335a141731b5b1",
	},
	"pq-one-dead/repair": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=209 r=408 h=e0049cdbca3bd994",
		"restart: w=7 r=106 h=69d7a1ef392d4a8e",
		"restart-hard0-workload: w=61 r=116 h=e6497c1dc28e9dd8",
		"restart-hard0: w=19 r=195 h=850b30f68c0f07ec",
		"restart-hard1-workload: w=45 r=93 h=99fb9d1b5ef13858",
		"restart-hard1: w=17 r=208 h=1bdb00b6eeeb5c11",
		"restart-hard2-workload: w=34 r=74 h=c1175d4efff38ddd",
		"restart-hard2: w=14 r=189 h=337f8c5262038a27",
		"workload-after: w=45 r=73 h=812a0e68b071c3f2",
		"platter=5222667aed728069",
	},
	"pq-one-dead/rebuild": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=209 r=408 h=e0049cdbca3bd994",
		"restart: w=7 r=106 h=69d7a1ef392d4a8e",
		"restart-hard0-workload: w=61 r=116 h=e6497c1dc28e9dd8",
		"restart-hard0: w=19 r=195 h=850b30f68c0f07ec",
		"restart-hard1-workload: w=45 r=93 h=99fb9d1b5ef13858",
		"restart-hard1: w=17 r=208 h=1bdb00b6eeeb5c11",
		"restart-hard2-workload: w=34 r=74 h=c1175d4efff38ddd",
		"restart-hard2: w=14 r=189 h=337f8c5262038a27",
		"workload-after: w=45 r=73 h=812a0e68b071c3f2",
		"platter=5222667aed728069",
	},
	"pq-two-dead/repair": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=179 r=496 h=f10fc4b5365b25b2",
		"restart: w=0 r=102 h=0000000000000000",
		"restart-hard0-workload: w=60 r=164 h=1f9c89219de4f7c4",
		"restart-hard0: w=24 r=224 h=fb787606e1b5f600",
		"restart-hard1-workload: w=45 r=131 h=4deecf534ffaead0",
		"restart-hard1: w=3 r=190 h=68254a745e57db0d",
		"restart-hard2-workload: w=33 r=120 h=cfd9517c06e1fa52",
		"restart-hard2: w=10 r=196 h=a5fc6cee7480dd96",
		"workload-after: w=74 r=173 h=978717966f419d62",
		"platter=f0b1d81b21a9ec20",
	},
	"pq-two-dead/rebuild": {
		"load: w=36 r=0 h=77031149d39a77a1",
		"workload: w=179 r=496 h=f10fc4b5365b25b2",
		"restart: w=0 r=102 h=0000000000000000",
		"restart-hard0-workload: w=60 r=164 h=1f9c89219de4f7c4",
		"restart-hard0: w=24 r=224 h=fb787606e1b5f600",
		"restart-hard1-workload: w=45 r=131 h=4deecf534ffaead0",
		"restart-hard1: w=3 r=190 h=68254a745e57db0d",
		"restart-hard2-workload: w=33 r=120 h=cfd9517c06e1fa52",
		"restart-hard2: w=10 r=196 h=a5fc6cee7480dd96",
		"workload-after: w=74 r=173 h=978717966f419d62",
		"platter=f0b1d81b21a9ec20",
	},
	"parity-striping-noforce/repair": {
		"load: w=48 r=48 h=e0b7c38ccf14711d",
		"workload: w=175 r=321 h=3d67b7994591e458",
		"restart: w=33 r=80 h=3dce4c2f673d8461",
		"restart-hard0-workload: w=62 r=98 h=e3d3e1ca7e472e28",
		"restart-hard0: w=49 r=178 h=a5d139aa9f1858c7",
		"restart-hard1-workload: w=45 r=83 h=2a03f08ea8b7c68b",
		"restart-hard1: w=46 r=164 h=b7ad91f2c2b64b21",
		"restart-hard2-workload: w=34 r=50 h=a80b7d85cdfef9d5",
		"restart-hard2: w=23 r=154 h=cff0c8e7bfbc1f63",
		"workload-after: w=52 r=95 h=f026872fd88fe84f",
		"platter=2606cff81788a151",
	},
}

// fingerprintFewerReads is the one column of the goldens PR 16 moved
// without moving a write: header reads a restart no longer issues, by
// scenario and phase.  The restart's one echo check (core.settleFlip)
// judges the header Figure 7 has just read, where the two copies it
// replaced read the winner's header a second time before looking at it —
// with one disk down, one transfer per group that lost a data page.  The
// w= and h= of these phases stay pinned to the 72c3d0f recordings above.
var fingerprintFewerReads = map[string]map[string]int{
	"twin-raid5-one-dead": {"restart": 8, "restart-hard0": 1, "restart-hard1": 8},
	"pq-one-dead":         {"restart": 6, "restart-hard1": 6},
	"pq-two-dead":         {"restart": 1, "restart-hard0": 1, "restart-hard1": 1, "restart-hard2": 1},
}

// fpFewerReads applies fingerprintFewerReads to one golden line.
func fpFewerReads(scenario, line string) string {
	phase, rest, _ := strings.Cut(line, ": ")
	n := fingerprintFewerReads[scenario][phase]
	if n == 0 {
		return line
	}
	var w, r int
	var h string
	if _, err := fmt.Sscanf(rest, "w=%d r=%d h=%s", &w, &r, &h); err != nil {
		panic(fmt.Sprintf("golden line %q: %v", line, err))
	}
	return fmt.Sprintf("%s: w=%d r=%d h=%s", phase, w, r-n, h)
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
				got := fpRun(t, sc, online)
				want := slices.Clone(fingerprintGolden[name])
				for i, line := range want {
					want[i] = fpFewerReads(sc.name, line)
				}
				same := slices.Equal(got, want)
				if !same {
					t.Errorf("fingerprint differs from the golden\n got: %q\nwant: %q", got, want)
				}
			})
		}
	}
}
