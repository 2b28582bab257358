package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

func genTrace(t *testing.T, spec string, mode trace.Mode, seed int64) *trace.Trace {
	t.Helper()
	prof := workload.Profile{
		Mode:           mode,
		Streams:        4,
		Transactions:   200,
		PagesPerTx:     6,
		UpdateFraction: 0.8,
		UpdateProb:     0.9,
		AbortProb:      0.02,
		Hot:            0.5,
		Window:         32,
		NumPages:       128,
		PageSize:       128,
		Seed:           seed,
	}
	if mode == trace.ModeRecord {
		prof.RecordSize = 16
	}
	prof, pl, err := workload.FromSpec(spec, prof)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(prof, pl)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestEncodeDecodeRoundtrip: the encoding is canonical — decoding and
// re-encoding any trace reproduces the bytes exactly.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, spec := range []string{"uniform", "zipfian:theta=0.99", "banking:accounts=50", "scan"} {
		for _, mode := range []trace.Mode{trace.ModePage, trace.ModeRecord} {
			tr := genTrace(t, spec, mode, 9)
			enc := tr.Encode()
			dec, err := trace.Decode(enc)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", spec, mode, err)
			}
			if dec.Header != tr.Header {
				t.Fatalf("%s/%s: header changed: %+v vs %+v", spec, mode, dec.Header, tr.Header)
			}
			if !bytes.Equal(dec.Encode(), enc) {
				t.Fatalf("%s/%s: encode(decode(b)) != b", spec, mode)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := genTrace(t, "uniform", trace.ModePage, 3).Encode()
	if _, err := trace.Decode(enc[:4]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := trace.Decode(append([]byte("NOTRC!"), enc[6:]...)); err == nil {
		t.Error("bad magic accepted")
	}
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := trace.Decode(flipped); err == nil {
		t.Error("bit flip accepted")
	}
	truncated := bytes.Clone(enc[:len(enc)-9])
	if _, err := trace.Decode(truncated); err == nil {
		t.Error("truncated body accepted")
	}
	if _, err := trace.Decode(seal([]byte(trace.Magic))); !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("a sealed magic alone: %v, want ErrCorrupt", err)
	}
}

// seal appends the CRC-32C trailer Encode puts on a trace body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// tiny is a sealed trace with an op of each kind but abort: its spec length varint is at offset 30
// (magic 6, version 2, mode and streams 2, three uint32 fields and the
// seed 20), the spec "x" at 31, the op count at 32, and the read op's page
// varint at 37, after the begin op's two bytes and the read's kind and
// stream.
func tiny() []byte {
	tr := trace.Trace{
		Header: trace.Header{Version: trace.Version, Streams: 1, NumPages: 8, PageSize: 128, Seed: 1, Spec: "x"},
		Ops: []trace.Op{{Kind: trace.OpBegin}, {Kind: trace.OpReadPage}, {Kind: trace.OpWritePage, Page: 3, Arg: 7},
			{Kind: trace.OpReadRecord, Page: 2, Slot: 1}, {Kind: trace.OpWriteRecord, Page: 5, Slot: 2, Arg: 9}, {Kind: trace.OpCommit}},
	}
	return tr.Encode()
}

// splice replaces n bytes of the sealed trace b at off with v, and
// re-seals it.
func splice(b []byte, off, n int, v []byte) []byte {
	body := append(append(bytes.Clone(b[:off]), v...), b[off+n:len(b)-4]...)
	return seal(body)
}

// TestDecodeBoundsTheSpecLength: a spec length past the end of the trace,
// up to 2^64 − 1, is corruption, not a slice out of range.
func TestDecodeBoundsTheSpecLength(t *testing.T) {
	b := tiny()
	if b[30] != 1 || b[31] != 'x' {
		t.Fatalf("tiny trace layout moved: % x", b[:32])
	}
	for _, n := range []uint64{2, 1 << 31, 1 << 32, 1 << 63, 1<<64 - 1} {
		bad := splice(b, 30, 1, binary.AppendUvarint(nil, n))
		if _, err := trace.Decode(bad); !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("spec length %d: %v, want ErrCorrupt", n, err)
		}
	}
}

// TestDecodeRejectsNonCanonicalInput: a varint that is not minimal, or a
// page wider than 32 bits, decodes to a trace that encodes to other bytes,
// so Decode refuses it — Encode(Decode(b)) == b for every b it accepts.
func TestDecodeRejectsNonCanonicalInput(t *testing.T) {
	b := tiny()
	if _, err := trace.Decode(b); err != nil || b[35] != byte(trace.OpReadPage) || b[37] != 0 {
		t.Fatalf("tiny trace: %v, layout % x", err, b[33:38])
	}
	for name, page := range map[string][]byte{
		"page 1<<40":            binary.AppendUvarint(nil, 1<<40),
		"non-minimal page zero": {0x80, 0x00},
	} {
		if tr, err := trace.Decode(splice(b, 37, 1, page)); !errors.Is(err, trace.ErrCorrupt) {
			t.Errorf("%s: decoded to %+v, %v; want ErrCorrupt", name, tr, err)
		}
	}
}

// FuzzTraceDecode: Decode never panics, and a trace it accepts encodes to
// its input.  The fuzzer mutates the body; the CRC trailer is re-sealed
// over it so the input gets past the checksum.
func FuzzTraceDecode(f *testing.F) {
	b := tiny()
	f.Add(b[:len(b)-4])
	f.Add([]byte(trace.Magic))
	f.Fuzz(func(t *testing.T, body []byte) {
		b := seal(body)
		tr, err := trace.Decode(b)
		if err == nil && !bytes.Equal(tr.Encode(), b) {
			t.Fatalf("accepted % x, which encodes to % x", b, tr.Encode())
		}
	})
}

func TestPayload(t *testing.T) {
	a := trace.Payload(0x1122334455667788, 64)
	b := trace.Payload(0x1122334455667788, 64)
	if !bytes.Equal(a, b) {
		t.Fatal("payload not deterministic")
	}
	if a[0] != 0x88 || a[7] != 0x11 {
		t.Fatalf("argument not little-endian in prefix: % x", a[:8])
	}
	if bytes.Equal(a[8:16], a[16:24]) {
		t.Fatal("fill not pseudorandom")
	}
	if got := trace.Payload(7, 4); len(got) != 4 || got[0] != 7 {
		t.Fatalf("short payload wrong: % x", got)
	}
}

func replayCfg(layout rda.Layout, disks int, eot rda.EOTDiscipline) rda.Config {
	cfg := rda.DefaultConfig()
	cfg.Layout = layout
	cfg.DataDisks = disks
	cfg.EOT = eot
	cfg.BufferFrames = 24
	return cfg
}

// TestReplayDeterministic: two replays of one trace on fresh databases
// of the same configuration produce identical digests, transfer counts
// and commit histories — the determinism contract.
func TestReplayDeterministic(t *testing.T) {
	tr := genTrace(t, "zipfian:theta=0.99", trace.ModeRecord, 17)
	run := func(opts trace.Options) trace.Result {
		db, err := rda.Open(tr.Config(replayCfg(rda.DataStriping, 4, rda.NoForce)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.Replay(db, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, opts := range []trace.Options{
		{},
		{CheckpointEvery: 500},
		{CrashAtEnd: true},
		{MaxTransfers: 400},
	} {
		a, b := run(opts), run(opts)
		if a.Digest != b.Digest || a.Transfers != b.Transfers || a.Committed != b.Committed {
			t.Errorf("opts %+v: runs differ: %+v vs %+v", opts, a, b)
		}
	}
}

// TestCheckpointEveryBoundsRecovery: periodic action-consistent
// checkpoints bound ¬FORCE crash recovery.  The same trace crashed at its
// end costs fewer recovery transfers when the replay checkpoints every
// CheckpointEvery transfers than when it never does, and both recover to
// a consistent array.
func TestCheckpointEveryBoundsRecovery(t *testing.T) {
	tr := genTrace(t, "uniform", trace.ModePage, 31)
	run := func(every int64) trace.Result {
		db, err := rda.Open(tr.Config(replayCfg(rda.DataStriping, 4, rda.NoForce)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.Replay(db, tr, trace.Options{CheckpointEvery: every, CrashAtEnd: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.VerifyParity(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	never, every := run(0), run(500)
	if every.RecoveryTransfers >= never.RecoveryTransfers {
		t.Fatalf("recovery took %d transfers with a checkpoint every 500, %d with none",
			every.RecoveryTransfers, never.RecoveryTransfers)
	}
}

// TestCrashAtEndKeepsBufferCounters: the crash at the end of a replay
// discards the buffer pool, and with it the pool's counters, yet
// Result.Stats must report the buffer activity of the run.  A generated
// trace ends with every transaction closed, so the counters read just
// before the crash are those of the same replay without one.
func TestCrashAtEndKeepsBufferCounters(t *testing.T) {
	tr := genTrace(t, "uniform", trace.ModePage, 23)
	run := func(opts trace.Options) (trace.Result, *rda.DB) {
		db, err := rda.Open(tr.Config(replayCfg(rda.DataStriping, 4, rda.NoForce)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.Replay(db, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, db
	}
	drained, _ := run(trace.Options{})
	crashed, db := run(trace.Options{CrashAtEnd: true})
	want, got := drained.Stats, crashed.Stats
	if want.BufferHits == 0 || want.BufferMisses == 0 || want.Steals == 0 {
		t.Fatalf("the run should hit, miss and steal: %d hits, %d misses, %d steals",
			want.BufferHits, want.BufferMisses, want.Steals)
	}
	if got.BufferHits != want.BufferHits || got.BufferMisses != want.BufferMisses || got.Steals != want.Steals {
		t.Fatalf("after the crash: %d hits, %d misses, %d steals; before it: %d, %d, %d",
			got.BufferHits, got.BufferMisses, got.Steals, want.BufferHits, want.BufferMisses, want.Steals)
	}
	if crashed.RecoveryTransfers <= 0 || got.Recoveries != 1 {
		t.Fatalf("the crash should be recovered at a cost: %d recovery transfers, %d recoveries",
			crashed.RecoveryTransfers, got.Recoveries)
	}
	if crashed.Transfers != drained.Transfers+crashed.RecoveryTransfers {
		t.Fatalf("crashed run %d transfers, drained %d + recovery %d", crashed.Transfers, drained.Transfers, crashed.RecoveryTransfers)
	}
	if err := db.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDigestGeometryIndependent: the digest covers logical pages
// and commit history only, so the same trace produces the same digest
// on every array geometry — what makes geometry sweeps apples-to-apples.
func TestReplayDigestGeometryIndependent(t *testing.T) {
	tr := genTrace(t, "uniform", trace.ModePage, 29)
	var digest string
	for i, cfg := range []rda.Config{
		replayCfg(rda.DataStriping, 8, rda.Force),
		replayCfg(rda.ParityStriping, 4, rda.Force),
		replayCfg(rda.DataStriping, 1, rda.Force), // mirror
	} {
		db, err := rda.Open(tr.Config(cfg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := trace.Replay(db, tr, trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			digest = res.Digest
		} else if res.Digest != digest {
			t.Errorf("geometry %d: digest %s differs from %s", i, res.Digest[:16], digest[:16])
		}
	}
}

// TestReplayIncompatible: a trace must not replay on a mismatched
// configuration.
func TestReplayIncompatible(t *testing.T) {
	tr := genTrace(t, "uniform", trace.ModeRecord, 5)
	bad := []func(*rda.Config){
		func(c *rda.Config) { c.Logging = rda.PageLogging },
		func(c *rda.Config) { c.PageSize = 256 },
		func(c *rda.Config) { c.NumPages = 64 },
		func(c *rda.Config) { c.RecordSize = 32 },
	}
	for i, mutate := range bad {
		cfg := tr.Config(replayCfg(rda.DataStriping, 4, rda.Force))
		mutate(&cfg)
		db, err := rda.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Replay(db, tr, trace.Options{}); err == nil {
			t.Errorf("mutation %d: incompatible replay accepted", i)
		}
	}
}
