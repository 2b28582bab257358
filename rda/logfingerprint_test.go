package rda

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/page"
	"repro/internal/wal"
)

// The log-sequence fingerprint: the write-sequence fingerprint's workload
// and configurations, with every log record each phase appends — type,
// transaction, page, slot and the CRC of its image, in LSN order — folded
// into a hash per phase.  It is the log's half of the refactoring safety
// net: a change that claims to leave the log alone must reproduce every
// line below, record mode and its aborts included.

// logPinTx is the transaction id of the log recorder's pin: no engine
// transaction ever gets it.
const logPinTx = page.TxID(math.MaxUint64)

// logRecorder fingerprints the records a phase appends to the log.  It
// pins the log against truncation with a transaction state whose BOT is
// the first LSN, so every record of a phase is still there to read when
// the phase ends.  Truncation moves no platter write — the test holds the
// same run's platter lines to fingerprintGolden to show it — and a
// restart reads the same outcomes from the longer log.
type logRecorder struct {
	next wal.LSN // first LSN of the current phase
}

// pin installs the pin in the engine's transaction table; a crash clears
// the table, so it is pinned again before every Recover.  The unforced log
// tail a crash dropped is appended anew from where it was cut.
func (lr *logRecorder) pin(db *DB) {
	if lr == nil {
		return
	}
	db.mu.Lock()
	db.states[logPinTx] = &txState{botLSN: 1}
	db.mu.Unlock()
	lr.next = min(max(lr.next, 1), wal.LSN(db.log.Len())+1)
}

// take returns the phase's log fingerprint line and starts the next phase.
func (lr *logRecorder) take(t *testing.T, db *DB) string {
	t.Helper()
	h := fnv.New64a()
	n := 0
	var b [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	err := db.log.Scan(lr.next, func(r wal.Record) bool {
		n++
		word(uint64(r.Type))
		word(uint64(r.Txn))
		word(uint64(r.Page))
		word(uint64(uint32(r.Slot)))
		word(uint64(crc32.ChecksumIEEE(r.Image)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	lr.next = wal.LSN(db.log.Len()) + 1
	return fmt.Sprintf("n=%d h=%016x", n, h.Sum64())
}

// classicScenarios add the engines without RDA recovery, whose every
// first modification logs its before-image at once, in both logging modes.
// Their platter lines are held to classicPlatterGolden.
func classicScenarios() []fpScenario {
	cuts := []fpCut{{after: 60, torn: true, head: true}, {after: 45}, {after: 33, torn: true}}
	return []fpScenario{
		{name: "classic-page-force", cfg: smallConfig(PageLogging, Force, false, DataStriping), scrubAt: 20, cuts: cuts},
		{name: "classic-record-noforce", cfg: smallConfig(RecordLogging, NoForce, false, ParityStriping), scrubAt: 20, cuts: cuts},
	}
}

// logFingerprintGolden holds the log fingerprints of every configuration
// of the write-sequence fingerprint and of the two classic ones, each run
// with its offline repair.  twin-raid5-one-dead's restart-hard2-workload
// holds one record more (n=33 → 34) since a FORCE flush logs its degraded
// groups' before-images in one batch ahead of its first array write: the
// cut falls mid-flush, after the whole batch.  A FORCE commit logs an
// after-image only for a page of a degraded group: every workload phase of
// the healthy FORCE configurations holds fewer records (twin-raid5 and pq
// workload n=119 → 60, classic-page-force 179 → 120), and the dead-disk
// ones move only in the workload phase before the death (n=142 → 127).
// The restarts log what they did before, and the ¬FORCE configurations
// reproduce whole.
var logFingerprintGolden = map[string][]string{
	"twin-raid5": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=60 h=df3c633fd0f905c2",
		"restart: n=1 h=6c8249e24014a98e",
		"restart-hard0-workload: n=23 h=b9e4c9930dfc8d26",
		"restart-hard0: n=3 h=1a7e55829a968fde",
		"restart-hard1-workload: n=12 h=b4066d119f416bf5",
		"restart-hard1: n=3 h=230c39e299908b59",
		"restart-hard2-workload: n=17 h=5ff6c5064e48c8de",
		"restart-hard2: n=3 h=06fa6bbbb39dabdb",
		"workload-after: n=23 h=8ae13cbf801c63c0",
	},
	"twin-raid5-one-dead": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=127 h=c6454a31293ff313",
		"restart: n=1 h=d06dc9358e77bc0f",
		"restart-hard0-workload: n=63 h=bf8d5433b84c1a6b",
		"restart-hard0: n=3 h=a8553cdfaa530e3b",
		"restart-hard1-workload: n=59 h=bb53649eac6c4417",
		"restart-hard1: n=2 h=31f8092c8330c716",
		"restart-hard2-workload: n=34 h=5b357e150c52624b",
		"restart-hard2: n=1 h=306b14fa81c452dd",
		"workload-after: n=74 h=b7d20eabdb223466",
	},
	"pq": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=60 h=df3c633fd0f905c2",
		"restart: n=1 h=6c8249e24014a98e",
		"restart-hard0-workload: n=17 h=6c67a099c8d29156",
		"restart-hard0: n=3 h=b4ded0b1e271ec5f",
		"restart-hard1-workload: n=8 h=9839d1f715ad3bd3",
		"restart-hard1: n=2 h=320cd79b5e99b026",
		"restart-hard2-workload: n=7 h=a8d3c5b8dd3febe5",
		"restart-hard2: n=3 h=b5b1104f70b65597",
		"workload-after: n=19 h=e1b18383294a8f77",
	},
	"pq-one-dead": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=127 h=c6454a31293ff313",
		"restart: n=1 h=d06dc9358e77bc0f",
		"restart-hard0-workload: n=57 h=81c51ef6df7a90f1",
		"restart-hard0: n=3 h=a8553cdfaa530e3b",
		"restart-hard1-workload: n=36 h=619698e38fd0354a",
		"restart-hard1: n=3 h=f25c0640e84bd780",
		"restart-hard2-workload: n=36 h=f33296f4c13ca8d8",
		"restart-hard2: n=2 h=f870bee4e5221a7c",
		"workload-after: n=53 h=cc3004498ccc2df0",
	},
	"pq-two-dead": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=159 h=31fa1e918ad6a1be",
		"restart: n=1 h=6c8249e24014a98e",
		"restart-hard0-workload: n=60 h=010ec1172cc2fd35",
		"restart-hard0: n=3 h=1a7e55829a968fde",
		"restart-hard1-workload: n=40 h=e40f4749e9a93e80",
		"restart-hard1: n=2 h=ebefb3126d2566a2",
		"restart-hard2-workload: n=29 h=9a448aeb48b1992e",
		"restart-hard2: n=3 h=c75369696ec1e0f4",
		"workload-after: n=53 h=98372f4e6ab1b36d",
	},
	"parity-striping-noforce": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=112 h=44955dc834e1261c",
		"restart: n=2 h=5998be65478283c5",
		"restart-hard0-workload: n=37 h=6efb73d4d6c1104c",
		"restart-hard0: n=4 h=842608be7535b415",
		"restart-hard1-workload: n=35 h=b1819a2ddbc933e0",
		"restart-hard1: n=2 h=ef1e1c6b77cd1574",
		"restart-hard2-workload: n=15 h=c815554eca842398",
		"restart-hard2: n=4 h=405ed5a04ad1336f",
		"workload-after: n=47 h=ba19d1e0516beebe",
	},
	"record-noforce": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=111 h=acd4e67dbe5a26f7",
		"restart: n=2 h=5998be65478283c5",
		"restart-hard0-workload: n=34 h=c9c3c76990d732c3",
		"restart-hard0: n=4 h=842608be7535b415",
		"restart-hard1-workload: n=37 h=ad38bb18c623543a",
		"restart-hard1: n=2 h=ef1e1c6b77cd1574",
		"restart-hard2-workload: n=25 h=0a8b4f3423d58623",
		"restart-hard2: n=2 h=7870b5639c053208",
		"workload-after: n=51 h=2fd96dfbc48becbb",
	},
	"classic-page-force": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=120 h=7f3d7f28d81460ac",
		"restart: n=1 h=6c8249e24014a98e",
		"restart-hard0-workload: n=59 h=09fec648aa99224a",
		"restart-hard0: n=3 h=1a7e55829a968fde",
		"restart-hard1-workload: n=47 h=a3a0003360cc88ca",
		"restart-hard1: n=2 h=e0763d27a1734d74",
		"restart-hard2-workload: n=29 h=970fbaa9c0ed7fd0",
		"restart-hard2: n=3 h=995ff495b5b2b477",
		"workload-after: n=40 h=7e94ef42ee3c2ea7",
	},
	"classic-record-noforce": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=182 h=88dea1f34799e013",
		"restart: n=2 h=5998be65478283c5",
		"restart-hard0-workload: n=72 h=332a4cb8b54943b8",
		"restart-hard0: n=4 h=842608be7535b415",
		"restart-hard1-workload: n=67 h=d40fdb31588e5bc4",
		"restart-hard1: n=2 h=ef1e1c6b77cd1574",
		"restart-hard2-workload: n=43 h=c98f50bb4126b634",
		"restart-hard2: n=4 h=b98b70da4ebb6cd3",
		"workload-after: n=74 h=69a92f061f6450bb",
	},
}

// classicPlatterGolden holds the write-sequence fingerprints of the
// classic configurations.  classic-page-force's workload phases read fewer
// blocks (workload r=244 → 224) since a FORCE commit reads no stolen page
// back for an after-image its redundant group does not need.
var classicPlatterGolden = map[string][]string{
	"classic-page-force": {
		"load: w=30 r=0 h=e593918d04e51c7a",
		"workload: w=145 r=224 h=29c48136a4e46889",
		"restart: w=0 r=5 h=0000000000000000",
		"restart-hard0-workload: w=61 r=75 h=cf4bce2460488ec4",
		"restart-hard0: w=25 r=99 h=d625fe5879496822",
		"restart-hard1-workload: w=45 r=55 h=240a0d6d62e314de",
		"restart-hard1: w=5 r=84 h=29f6abfaa5c51287",
		"restart-hard2-workload: w=34 r=39 h=9aaa8f5b19254470",
		"restart-hard2: w=21 r=94 h=cb54091acba3ad9d",
		"workload-after: w=32 r=41 h=9d0e38e23b3c67af",
		"platter=4ec804e1b9e936ed",
	},
	"classic-record-noforce": {
		"load: w=60 r=60 h=58b270402c9736f7",
		"workload: w=165 r=349 h=737c65b65fd9607a",
		"restart: w=4 r=21 h=920a6a3fdb0f499d",
		"restart-hard0-workload: w=61 r=100 h=16ea2404829dbfb4",
		"restart-hard0: w=15 r=120 h=c25ce13f0f44d232",
		"restart-hard1-workload: w=45 r=89 h=fc1bd724a61acd1b",
		"restart-hard1: w=11 r=118 h=a25c13e4a536a828",
		"restart-hard2-workload: w=34 r=59 h=edf557b2f86dd8df",
		"restart-hard2: w=15 r=113 h=af5f8aa70f31668b",
		"workload-after: w=62 r=112 h=aca389252fd4b47e",
		"platter=57bfb9b964b41a44",
	},
}

func TestLogSequenceFingerprint(t *testing.T) {
	for _, sc := range append(fpScenarios(), classicScenarios()...) {
		t.Run(sc.name, func(t *testing.T) {
			platter, got := fpRun(t, sc, false, &logRecorder{})
			want, ok := fingerprintGolden[sc.name+"/repair"]
			if !ok {
				want = classicPlatterGolden[sc.name]
			}
			if !slices.Equal(platter, want) {
				t.Errorf("write fingerprint differs from the golden\n got: %q\nwant: %q", platter, want)
			}
			if want := logFingerprintGolden[sc.name]; !slices.Equal(got, want) {
				t.Errorf("log fingerprint differs from the golden\n got: %q\nwant: %q", got, want)
			}
		})
	}
}
