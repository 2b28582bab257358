package fault

import (
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/page"
)

func newDisk(t *testing.T) *disk.Disk {
	t.Helper()
	return disk.New(0, 8, 64)
}

func buf(b byte) page.Buf {
	out := make(page.Buf, 64)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestPlaneCountsWrites(t *testing.T) {
	d := newDisk(t)
	p := NewPlane(nil)
	d.SetInjector(p)
	for i := 0; i < 3; i++ {
		if err := d.Write(i, buf(0xAA), disk.Meta{}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := d.WriteMeta(0, disk.Meta{State: disk.StateCommitted}); err != nil {
		t.Fatalf("writemeta: %v", err)
	}
	if _, _, err := d.Read(0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := p.Writes(); got != 4 {
		t.Fatalf("Writes() = %d, want 4 (meta writes count)", got)
	}
	if got := p.Reads(); got != 1 {
		t.Fatalf("Reads() = %d, want 1", got)
	}
}

func TestCrashAfterNWrites(t *testing.T) {
	d := newDisk(t)
	p := NewPlane(Schedule{CrashAfterNWrites(2)})
	d.SetInjector(p)
	for i := 0; i < 2; i++ {
		if err := d.Write(i, buf(0x11), disk.Meta{}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	func() {
		defer func() {
			c, ok := AsCrash(recover())
			if !ok {
				t.Fatalf("expected crash sentinel")
			}
			if c.Writes != 2 || c.Torn {
				t.Fatalf("crash = %+v, want clean crash at write 2", c)
			}
		}()
		_ = d.Write(2, buf(0x22), disk.Meta{})
		t.Fatalf("write 2 did not crash")
	}()
	// The crashed write must not have reached the platter.
	got, err := d.PeekData(2, nil)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	if got[0] != 0 {
		t.Fatalf("crashed write reached the disk: %v", got[:4])
	}
	if p.Writes() != 2 {
		t.Fatalf("Writes() = %d after crash, want 2", p.Writes())
	}
}

func TestTornWrite(t *testing.T) {
	d := newDisk(t)
	if err := d.Write(1, buf(0x0F), disk.Meta{}); err != nil {
		t.Fatal(err)
	}
	// The pre-fill write above ran before the plane was installed, so the
	// torn write is plane write index 0.
	p := NewPlane(Schedule{TornWrite(0, true)})
	d.SetInjector(p)
	newMeta := disk.Meta{State: disk.StateWorking, Timestamp: 7}
	func() {
		defer func() {
			c, ok := AsCrash(recover())
			if !ok || !c.Torn {
				t.Fatalf("expected torn crash, got %v", c)
			}
		}()
		_ = d.Write(1, buf(0xF0), newMeta)
		t.Fatalf("torn write did not crash")
	}()
	// Header persisted, payload half-new half-old, reads fail checksum.
	m, err := d.PeekMeta(1)
	if err != nil {
		t.Fatal(err)
	}
	if m != newMeta {
		t.Fatalf("torn header = %+v, want %+v", m, newMeta)
	}
	data, err := d.PeekData(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xF0 || data[63] != 0x0F {
		t.Fatalf("torn payload = head %#x tail %#x, want new head old tail", data[0], data[63])
	}
	if _, _, err := d.Read(1); !errors.Is(err, disk.ErrChecksum) {
		t.Fatalf("read of torn block: %v, want ErrChecksum", err)
	}
}

func TestTransientError(t *testing.T) {
	d := newDisk(t)
	p := NewPlane(Schedule{TransientError(disk.OpRead, 1)})
	d.SetInjector(p)
	if _, _, err := d.Read(0); err != nil {
		t.Fatalf("read 0: %v", err)
	}
	if _, _, err := d.Read(0); !errors.Is(err, ErrTransient) {
		t.Fatalf("read 1: %v, want ErrTransient", err)
	}
	if _, _, err := d.Read(0); err != nil {
		t.Fatalf("read after transient: %v (must succeed)", err)
	}
}

func TestBitFlip(t *testing.T) {
	d := newDisk(t)
	p := NewPlane(Schedule{BitFlip(0, 13)})
	d.SetInjector(p)
	if err := d.Write(3, buf(0x55), disk.Meta{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := d.Read(3); !errors.Is(err, disk.ErrChecksum) {
		t.Fatalf("read of flipped block: %v, want ErrChecksum", err)
	}
	data, err := d.PeekData(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[1] != 0x55^(1<<5) { // bit 13 = byte 1, bit 5
		t.Fatalf("payload byte 1 = %#x, want bit 5 flipped", data[1])
	}
}

func TestFailDisk(t *testing.T) {
	d := newDisk(t)
	p := NewPlane(Schedule{FailDisk(0, 1)})
	d.SetInjector(p)
	if err := d.Write(0, buf(0x01), disk.Meta{}); err != nil {
		t.Fatalf("write 0: %v", err)
	}
	if err := d.Write(1, buf(0x02), disk.Meta{}); !errors.Is(err, disk.ErrFailed) {
		t.Fatalf("write 1: %v, want ErrFailed", err)
	}
	if !d.Failed() {
		t.Fatalf("disk not failed after FailDisk rule")
	}
}

// TestLostWrite checks the silent-drop semantics: the drive acknowledges
// the write, the old contents survive internally consistent, and the
// disk's own read path cannot tell — detection is the write ledger's job.
func TestLostWrite(t *testing.T) {
	d := newDisk(t)
	if err := d.Write(3, buf(0x11), disk.Meta{}); err != nil {
		t.Fatal(err)
	}
	p := NewPlane(Schedule{LostWrite(0)})
	d.SetInjector(p)
	if err := d.Write(3, buf(0x77), disk.Meta{Timestamp: 9}); err != nil {
		t.Fatalf("lost write surfaced an error: %v", err)
	}
	got, m, err := d.Read(3)
	if err != nil {
		t.Fatalf("read after lost write: %v (the disk itself must not notice)", err)
	}
	if got[0] != 0x11 || m.Timestamp != 0 {
		t.Fatalf("block 3 = %#x ts=%d, want the pre-loss contents", got[0], m.Timestamp)
	}
	if p.Writes() != 1 {
		t.Fatalf("Writes() = %d, want 1 (an acknowledged lost write counts)", p.Writes())
	}
}

// TestMisdirectedWrite checks that the whole sector — payload, header
// and location stamp — lands at the victim block, where the stamp naming
// the intended position betrays it, while the intended block silently
// keeps its stale contents.
func TestMisdirectedWrite(t *testing.T) {
	d := newDisk(t)
	if err := d.Write(2, buf(0x11), disk.Meta{}); err != nil {
		t.Fatal(err)
	}
	p := NewPlane(Schedule{Misdirected(0, 5)})
	d.SetInjector(p)
	if err := d.Write(2, buf(0x9A), disk.Meta{Timestamp: 4}); err != nil {
		t.Fatalf("misdirected write surfaced an error: %v", err)
	}
	if _, _, err := d.Read(5); !errors.Is(err, disk.ErrStamp) {
		t.Fatalf("read of victim block: %v, want ErrStamp", err)
	}
	landed, err := d.PeekData(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if landed[0] != 0x9A {
		t.Fatalf("victim payload = %#x, want the misdirected payload", landed[0])
	}
	got, m, err := d.Read(2)
	if err != nil {
		t.Fatalf("read of intended block: %v (stale but self-consistent)", err)
	}
	if got[0] != 0x11 || m.Timestamp != 0 {
		t.Fatalf("intended block = %#x ts=%d, want stale contents", got[0], m.Timestamp)
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{CrashAfterNWrites(9), TornWrite(3, false), TransientError(disk.OpWrite, 2), BitFlip(5, 7), FailDisk(2, 11), LostWrite(4), Misdirected(6, 21)}
	want := "crash@w9 torn[tail]@w3 transient[write]@2 bitflip[7]@w5 faildisk[2]@w11 lostwrite@w4 misdirected[21]@w6"
	if got := s.String(); got != want {
		t.Fatalf("Schedule.String() = %q, want %q", got, want)
	}
	back, err := ParseSchedule(want)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", want, err)
	}
	if back.String() != want {
		t.Fatalf("round trip = %q, want %q", back.String(), want)
	}
	for _, bad := range []string{
		"crash@9", "torn@w3", "torn[half]@w3", "bitflip[x]@w1", "frob@w1", "crash@w-1",
		"lostwrite[1]@w3", "lostwrite@3", "misdirected@w4", "misdirected[-1]@w2", "misdirected[z]@w2",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(sched Schedule) (writes int64, crashAt int64) {
		d := newDisk(t)
		p := NewPlane(sched)
		d.SetInjector(p)
		crashAt = -1
		func() {
			defer func() {
				if c, ok := AsCrash(recover()); ok {
					crashAt = c.Writes
				}
			}()
			for i := 0; i < 6; i++ {
				_ = d.Write(i%8, buf(byte(i)), disk.Meta{})
			}
		}()
		return p.Writes(), crashAt
	}
	w1, c1 := run(Schedule{CrashAfterNWrites(4)})
	w2, c2 := run(Schedule{CrashAfterNWrites(4)})
	if w1 != w2 || c1 != c2 || c1 != 4 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", w1, c1, w2, c2)
	}
}
