package main

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/erasure"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/record"
	"repro/internal/wal"
	"repro/internal/xorparity"
	"repro/rda"
)

// driveTime is how long each leaf function is driven at -scale 1.
// Per-layer metrics carry no bound, and a traced run has to fit the same
// time budget as an untraced one, so this is shorter than a `go test
// -bench` second.
const driveTime = 250 * time.Millisecond

// driveLoop calls fn in batches of batch calls until they have taken d,
// and returns the mean nanoseconds per call.  between, when set, runs
// untimed after each batch.
func driveLoop(d time.Duration, batch int, fn func(i int), between func()) float64 {
	var busy time.Duration
	calls := 0
	for busy < d {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn(calls + i)
		}
		busy += time.Since(t0)
		calls += batch
		if between != nil {
			between()
		}
	}
	return float64(busy.Nanoseconds()) / float64(calls)
}

// sink keeps the compiler from dropping a driven call whose result is
// otherwise unused.
var sink uint32

// mbPerS converts nanoseconds per call over n bytes to MB/s.
func mbPerS(ns float64, n int) float64 { return float64(n) / ns * 1e3 }

// driveLayers times the leaf functions below the rda facade directly, at
// the workload's page and record size.  Only the in-place kernels and
// the calls whose signatures the planned refactors keep are driven.
func driveLayers(cfg rda.Config, each time.Duration, m map[string]float64) {
	drive := func(batch int, fn func(i int), between func()) float64 {
		return driveLoop(each, batch, fn, between)
	}
	size := cfg.PageSize
	a, b := page.NewBuf(size), page.NewBuf(size)
	for i := range a {
		a[i], b[i] = byte(i*7+1), byte(i*13+5)
	}

	const resident = 256
	pool := buffer.New(resident, size,
		func(page.PageID) (page.Buf, error) { return page.NewBuf(size), nil },
		func(*buffer.Frame) error { return nil })
	for p := 0; p < resident; p++ {
		if _, err := pool.Get(page.PageID(p), nil); err == nil {
			pool.Unpin(page.PageID(p))
		}
	}
	m["buffer.get_hit_ns"] = drive(1000, func(i int) {
		p := page.PageID(i % resident)
		if _, err := pool.Get(p, nil); err == nil {
			pool.Unpin(p)
		}
	}, nil)

	locks := lock.New()
	m["lock.acquire_release_ns"] = drive(1000, func(i int) {
		_ = locks.Acquire(1, lock.PageResource(page.PageID(i%resident)), lock.Shared) // uncontended: cannot fail
		locks.ReleaseAll(1)
	}, nil)

	latches := latch.New(resident)
	m["latch.acquire_release_ns"] = drive(1000, func(i int) {
		h := latches.NewHeld()
		h.Acquire(page.GroupID(i % resident))
		h.ReleaseAll()
	}, nil)

	// The log keeps what it is given in memory, so it is truncated
	// between batches, outside the timed interval.
	log := wal.New(wal.Config{LogPageSize: cfg.LogPageSize, WriteCost: cfg.LogWriteCost, Packed: cfg.PackedLog})
	truncate := func() { log.Truncate(wal.LSN(log.Len())) }
	m["wal.append_page_ns"] = drive(256, func(i int) {
		log.Append(wal.Record{Type: wal.TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: wal.NoSlot, Image: a})
	}, truncate)
	rec := a[:cfg.RecordSize]
	m["wal.append_record_ns"] = drive(256, func(i int) {
		log.Append(wal.Record{Type: wal.TypeAfterImage, Txn: 1, Page: page.PageID(i), Slot: 3, Image: rec})
	}, truncate)

	rp := page.NewBuf(size)
	if err := record.Format(rp, cfg.RecordSize); err == nil {
		slots := record.Capacity(size, cfg.RecordSize)
		m["record.write_ns"] = drive(1000, func(i int) {
			if v, err := record.View(rp); err == nil {
				_ = v.Write(i%slots, rec) // slot and length are valid by construction
			}
		}, nil)
	}

	m["page.checksum_mb_per_s"] = mbPerS(drive(1000, func(int) { sink += a.Checksum() }, nil), size)
	m["xorparity.xor_mb_per_s"] = mbPerS(drive(1000, func(int) { xorparity.XorInto(a, b) }, nil), size)
	m["erasure.add_mb_per_s"] = mbPerS(drive(1000, func(int) { erasure.AddInto(a, b) }, nil), size)
	m["erasure.muladd_mb_per_s"] = mbPerS(drive(1000, func(i int) { erasure.MulAddInto(a, b, byte(i%254)+2) }, nil), size)

	const blocks = 64
	dk := disk.New(0, blocks, size)
	m["disk.write_ns"] = drive(1000, func(i int) { _ = dk.Write(i%blocks, a, disk.Meta{}) }, nil) // in range, never failed
	m["disk.read_ns"] = drive(1000, func(i int) { _, _, _ = dk.Read(i % blocks) }, nil)

	// How far the host's timer overshoots the service time the workload
	// asks its drives to sleep.
	m["disk.sleep_overshoot_pct"] = 0
	if cfg.IODelay > 0 {
		dk.SetLatency(cfg.IODelay)
		l := drive(20, func(i int) { _, _, _ = dk.Read(i % blocks) }, nil)
		m["disk.sleep_overshoot_pct"] = (l/float64(cfg.IODelay.Nanoseconds()) - 1) * 100
	}
}
