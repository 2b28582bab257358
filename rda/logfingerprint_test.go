package rda

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
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

// logPinTx is the transaction id of the log recorder's pin: below every
// engine transaction's, which start at 1.
const logPinTx = page.InvalidTx

// logRecorder fingerprints the records a phase appends to the log.  It
// pins the log against truncation with a transaction state that began at
// the first LSN and whose id is below every other: every durable floor the
// engine stamps is then the pin's, which keeps the log from LSN 1, so every
// record of a phase is still there to read when the phase ends.  Truncation moves no platter write — the test holds the
// same run's platter lines to fingerprintGolden to show it — and a
// restart reads the same outcomes from the longer log.
type logRecorder struct {
	next wal.LSN // first LSN of the current phase
}

// pin installs the pin in the engine's transaction table.  A crash clears
// the table, and the pin goes back in only after Recover: the restart runs
// unpinned, so the floor it closes with reaches the log's anchor as it
// does without a recorder, and its truncation drops only records of
// phases already taken.
func (lr *logRecorder) pin(db *DB) {
	if lr == nil {
		return
	}
	db.mu.Lock()
	db.states[logPinTx] = &txState{beginLSN: 1}
	db.mu.Unlock()
	lr.next = max(lr.next, 1)
}

// crashed moves the phase start back to the end of the log a crash left:
// the unforced tail it dropped is appended anew from where it was cut.
func (lr *logRecorder) crashed(db *DB) {
	if lr != nil {
		lr.next = min(lr.next, wal.LSN(db.log.Len())+1)
	}
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
// The BOT record is gone (presumed abort above the durable floor): every
// update transaction's phase holds one record fewer per transaction
// (twin-raid5 workload n=60 → 38, classic-page-force 120 → 101), an EOT,
// abort or checkpoint hashes its floor in the Page word (with the pin,
// every stamped floor is the pin's), and a restart appends no abort per
// loser: under ¬FORCE it closes with one checkpoint carrying the next id,
// under FORCE with nothing, the next id reaching the log's anchor (every
// FORCE restart line n=1 → 0; the recorder re-pins after Recover, so the
// restart's floor is anchored as without it).  The platter lines are
// unchanged.
var logFingerprintGolden = map[string][]string{
	"twin-raid5": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=38 h=226f113337efc7e5",
		"restart: n=0 h=cbf29ce484222325",
		"restart-hard0-workload: n=12 h=6c62f998bb9805ab",
		"restart-hard0: n=0 h=cbf29ce484222325",
		"restart-hard1-workload: n=7 h=d942bb68e5493fdd",
		"restart-hard1: n=0 h=cbf29ce484222325",
		"restart-hard2-workload: n=10 h=ea9e7e7c4667fc3a",
		"restart-hard2: n=0 h=cbf29ce484222325",
		"workload-after: n=15 h=4f7f9813dab96644",
	},
	"twin-raid5-one-dead": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=106 h=e359c31b388aa66f",
		"restart: n=0 h=cbf29ce484222325",
		"restart-hard0-workload: n=52 h=bc2866abdb82f183",
		"restart-hard0: n=0 h=cbf29ce484222325",
		"restart-hard1-workload: n=49 h=cb4a384a559d8680",
		"restart-hard1: n=0 h=cbf29ce484222325",
		"restart-hard2-workload: n=29 h=a237154f203d15cd",
		"restart-hard2: n=0 h=cbf29ce484222325",
		"workload-after: n=68 h=ee9d89c8aaf4ba98",
	},
	"pq": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=38 h=226f113337efc7e5",
		"restart: n=0 h=cbf29ce484222325",
		"restart-hard0-workload: n=8 h=4f7c5b329e11fd18",
		"restart-hard0: n=0 h=cbf29ce484222325",
		"restart-hard1-workload: n=5 h=5460d908fab1277c",
		"restart-hard1: n=0 h=cbf29ce484222325",
		"restart-hard2-workload: n=2 h=857fdf5bb189cc8b",
		"restart-hard2: n=0 h=cbf29ce484222325",
		"workload-after: n=12 h=62b08a69b48c8039",
	},
	"pq-one-dead": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=106 h=e359c31b388aa66f",
		"restart: n=0 h=cbf29ce484222325",
		"restart-hard0-workload: n=46 h=b83ea8d6298180b9",
		"restart-hard0: n=0 h=cbf29ce484222325",
		"restart-hard1-workload: n=28 h=208ff15f1c12a1f1",
		"restart-hard1: n=0 h=cbf29ce484222325",
		"restart-hard2-workload: n=30 h=b69844762b58aee9",
		"restart-hard2: n=0 h=cbf29ce484222325",
		"workload-after: n=47 h=6901b79769b76fde",
	},
	"pq-two-dead": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=140 h=90ea32db479c06b9",
		"restart: n=0 h=cbf29ce484222325",
		"restart-hard0-workload: n=49 h=c24c7a567a0ab13c",
		"restart-hard0: n=0 h=cbf29ce484222325",
		"restart-hard1-workload: n=32 h=44a0980a3d93a74d",
		"restart-hard1: n=0 h=cbf29ce484222325",
		"restart-hard2-workload: n=24 h=b57641cbba1056af",
		"restart-hard2: n=0 h=cbf29ce484222325",
		"workload-after: n=45 h=aa44318aea5fb43f",
	},
	"parity-striping-noforce": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=91 h=90174701dd9ea7ad",
		"restart: n=1 h=6f99671d924b3393",
		"restart-hard0-workload: n=26 h=c368b049e8e83afd",
		"restart-hard0: n=1 h=79520246d8517e18",
		"restart-hard1-workload: n=25 h=50530eb2c70b53a8",
		"restart-hard1: n=1 h=1cf59d79d60b5de0",
		"restart-hard2-workload: n=10 h=5ecc0228e4e6d225",
		"restart-hard2: n=1 h=a577ade8a2581be4",
		"workload-after: n=36 h=6747f39d0a1a2b5a",
	},
	"record-noforce": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=89 h=03b1e286175840e0",
		"restart: n=1 h=6f99671d924b3393",
		"restart-hard0-workload: n=23 h=885c81eb57db35ce",
		"restart-hard0: n=1 h=79520246d8517e18",
		"restart-hard1-workload: n=27 h=30639009f216c19e",
		"restart-hard1: n=1 h=1cf59d79d60b5de0",
		"restart-hard2-workload: n=20 h=6d6235a2f2fff013",
		"restart-hard2: n=1 h=09632d3bf0bb2e65",
		"workload-after: n=41 h=5d43beab4e46daf9",
	},
	"classic-page-force": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=101 h=17ef4df2fc3bfb47",
		"restart: n=0 h=cbf29ce484222325",
		"restart-hard0-workload: n=50 h=736a82e95b3d478d",
		"restart-hard0: n=0 h=cbf29ce484222325",
		"restart-hard1-workload: n=39 h=9a3ffdd1241eb5fd",
		"restart-hard1: n=0 h=cbf29ce484222325",
		"restart-hard2-workload: n=24 h=4d82cc8d5658c88a",
		"restart-hard2: n=0 h=cbf29ce484222325",
		"workload-after: n=33 h=91799e9e1b7b3565",
	},
	"classic-record-noforce": {
		"load: n=1 h=f6893d345eb8c6fe",
		"workload: n=163 h=eca5c7b72d6b455c",
		"restart: n=1 h=6f99671d924b3393",
		"restart-hard0-workload: n=63 h=a3b787767cf118fb",
		"restart-hard0: n=1 h=79520246d8517e18",
		"restart-hard1-workload: n=59 h=caee0e23903f162c",
		"restart-hard1: n=1 h=1cf59d79d60b5de0",
		"restart-hard2-workload: n=37 h=1665812e2654439f",
		"restart-hard2: n=1 h=f5d0bcfe0b6afeea",
		"workload-after: n=66 h=46667faf44b19783",
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
