package fault

import (
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
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

// crash runs io, which must panic with the crash sentinel, and returns it.
func crash(t *testing.T, io func() error) *Crash {
	t.Helper()
	var err error
	r := func() (r any) {
		defer func() { r = recover() }()
		err = io()
		return nil
	}()
	c, ok := AsCrash(r)
	if !ok {
		t.Fatalf("the access returned %v, panicked with %v, instead of crashing", err, r)
	}
	return c
}

// TestCrashWinsOverTransientError: a transient error that falls on the
// crash write, by a rule or by the background rate, does not swallow the
// crash.  The write never reaches the platter and the clock does not move.
func TestCrashWinsOverTransientError(t *testing.T) {
	rule := NewPlane(Schedule{TransientError(disk.OpWrite, 0), CrashAfterNWrites(0)})
	rate := NewPlane(Schedule{CrashAfterNWrites(0)})
	rate.SetTransientEvery(1)
	for name, p := range map[string]*Plane{"rule": rule, "rate": rate} {
		d := newDisk(t)
		d.SetInjector(p)
		if c := crash(t, func() error { return d.Write(2, buf(0x22), disk.Meta{}) }); c.Writes != 0 || c.Torn {
			t.Errorf("%s: crash = %+v, want a clean crash at write 0", name, c)
		}
		if got, _ := d.PeekData(2, nil); got[0] != 0 {
			t.Errorf("%s: the crashed write reached the platter", name)
		}
		if p.Writes() != 0 {
			t.Errorf("%s: Writes() = %d after the crash, want 0", name, p.Writes())
		}
	}
}

// TestCrashWinsOverFailStop: a drive that fail-stops at the crash write, or
// was dead before it, does not swallow the crash either, and a tear of that
// write persists nothing: the drive is dead before the transfer.
func TestCrashWinsOverFailStop(t *testing.T) {
	old := disk.Meta{State: disk.StateCommitted, Timestamp: 3}
	for _, dying := range []bool{true, false} {
		for _, cut := range []Rule{CrashAfterNWrites(0), TornWrite(0, true), TornWrite(0, false)} {
			d := newDisk(t)
			if err := d.Write(1, buf(0x0F), old); err != nil {
				t.Fatal(err)
			}
			sched := Schedule{cut}
			if dying {
				sched = Schedule{FailDisk(0, 0), cut}
			} else {
				d.Fail()
			}
			d.SetInjector(NewPlane(sched))
			crash(t, func() error { return d.Write(1, buf(0xF0), disk.Meta{State: disk.StateWorking, Timestamp: 7}) })
			if !d.Failed() {
				t.Errorf("%v: the drive did not fail", sched)
			}
			data, _ := d.PeekData(1, nil)
			meta, _ := d.PeekMeta(1)
			if data[0] != 0x0F || data[63] != 0x0F || meta != old {
				t.Errorf("%v (dying %v): the dead drive's block changed: head %#x tail %#x header %+v", sched, dying, data[0], data[63], meta)
			}
		}
	}
}

// TestTornHeaderWriteCrashesCleanly: a header-only write is one out-of-band
// transfer, so a tear scheduled on one is a clean crash that leaves the old
// header in place — never a rule that passes the write by.
func TestTornHeaderWriteCrashesCleanly(t *testing.T) {
	d := newDisk(t)
	old := disk.Meta{State: disk.StateCommitted, Timestamp: 3}
	if err := d.WriteMeta(1, old); err != nil {
		t.Fatal(err)
	}
	p := NewPlane(Schedule{TornWrite(0, true)})
	d.SetInjector(p)
	if c := crash(t, func() error { return d.WriteMeta(1, disk.Meta{State: disk.StateWorking, Timestamp: 7}) }); c.Writes != 0 || c.Torn {
		t.Errorf("crash = %+v, want a clean crash at write 0", c)
	}
	if meta, _ := d.PeekMeta(1); meta != old {
		t.Errorf("header = %+v after the crash, want %+v", meta, old)
	}
	if p.Writes() != 0 {
		t.Errorf("Writes() = %d after the crash, want 0", p.Writes())
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

// TestTransientCountsItsOwnOp: a transient rule's index counts the
// accesses of its own op, so accesses of another op before it neither move
// it nor make it wait forever.
func TestTransientCountsItsOwnOp(t *testing.T) {
	d := newDisk(t)
	p := NewPlane(Schedule{TransientError(disk.OpReadMeta, 1)})
	d.SetInjector(p)
	var got []error
	for _, op := range []disk.Op{disk.OpRead, disk.OpRead, disk.OpReadMeta, disk.OpReadMeta, disk.OpReadMeta} {
		_, _, _, err := d.Do(disk.Request{Op: op, Block: 0})
		got = append(got, err)
	}
	for i, err := range got {
		if want := i == 3; errors.Is(err, ErrTransient) != want || (!want && err != nil) {
			t.Errorf("access %d: %v, want a transient error only at the second header read", i, err)
		}
	}
}

// faultColumns names the values of a view's columns in the order of
// DESIGN.md's fault plane table.
var faultColumns = [...]struct {
	header string
	values []string
}{
	{"rule", []string{"crash", "torn", "transient", "bitflip", "faildisk", "lostwrite", "misdirected"}},
	{"op", []string{"read", "write", "readmeta", "writemeta"}},
	{"clock", []string{"before", "at", "past"}},
	{"own", []string{"no", "yes"}},
	{"drive", []string{"alive", "dying", "dead"}},
	{"transient error", []string{"no", "yes"}},
}

// faultRow is one row of the table: per column, the set of value indexes it
// matches (a bit each), the decision, whether the rule fires, and whether
// it is one of ROADMAP 1(d)'s rows.
type faultRow struct {
	line     int
	match    [len(faultColumns)]uint
	decision string
	fires    bool
	roadmap  bool
}

// parseFaultTable reads the fault plane table from DESIGN.md.
func parseFaultTable(t *testing.T) []faultRow {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []faultRow
	inTable := false
	for n, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		switch {
		case !strings.HasPrefix(line, "|"):
			if inTable {
				return rows
			}
			continue
		case len(cells) > 1 && cells[0] == "rule" && cells[1] == "op":
			for c, col := range faultColumns {
				if cells[c] != col.header {
					t.Fatalf("DESIGN.md:%d: column %d is %q, want %q", n+1, c, cells[c], col.header)
				}
			}
			inTable = true
			continue
		case !inTable || strings.HasPrefix(line, "|---"):
			continue
		}
		if len(cells) != len(faultColumns)+3 {
			t.Fatalf("DESIGN.md:%d: %d cells, want %d", n+1, len(cells), len(faultColumns)+3)
		}
		row := faultRow{line: n + 1, decision: cells[len(faultColumns)]}
		for c, col := range faultColumns {
			for _, name := range strings.Split(cells[c], " / ") {
				if name == "·" {
					row.match[c] |= 1<<len(col.values) - 1
					continue
				}
				i := slices.Index(col.values, name)
				if i < 0 {
					t.Fatalf("DESIGN.md:%d: %s %q is none of %q", n+1, col.header, name, col.values)
				}
				row.match[c] |= 1 << i
			}
		}
		switch then := cells[len(faultColumns)+1]; then {
		case "fired", "armed":
			row.fires = then == "fired"
		default:
			t.Fatalf("DESIGN.md:%d: then %q is neither fired nor armed", n+1, then)
		}
		row.roadmap = strings.HasPrefix(cells[len(faultColumns)+2], "1(d):")
		rows = append(rows, row)
	}
	if !inTable {
		t.Fatal("DESIGN.md has no fault plane table")
	}
	return rows
}

// decisionName names a decision as the table does, and checks that it
// carries the rule's parameters.
func decisionName(t *testing.T, r Rule, d disk.Decision) string {
	t.Helper()
	c, _ := d.Panic.(*Crash)
	switch {
	case d.Panic != nil && (c == nil || c.Torn != d.Torn):
		t.Errorf("%v: panics with %v beside Torn %v", r, d.Panic, d.Torn)
	case d.Torn && d.TornHead != r.Head, d.FlipBit && d.FlipBitOffset != r.Bit, d.Redirect && d.RedirectBlock != r.Block:
		t.Errorf("%v: decision %+v does not carry the rule's parameters", r, d)
	}
	var names []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"die", d.FailDisk}, {"tear", d.Torn}, {"crash", d.Panic != nil && !d.Torn}, {"error", d.Err != nil},
		{"flip", d.FlipBit}, {"lose", d.LostWrite}, {"redirect", d.Redirect},
	} {
		if f.set {
			names = append(names, f.name)
		}
	}
	switch len(names) {
	case 0:
		return "none"
	case 1:
		return names[0]
	}
	t.Errorf("%v: one rule asks for %v", r, names)
	return "several"
}

// TestDecideMatchesDesignTable enumerates every view a rule can have of an
// access and checks that exactly one row of DESIGN.md's fault plane table
// matches it, and that the row's decision and whether the rule fires are
// decide's.  It also checks that the only cells where an access that moves
// a rule's clock meets the rule at its index and leaves it armed are the
// rows marked 1(d).
func TestDecideMatchesDesignTable(t *testing.T) {
	rows := parseFaultTable(t)
	used := make([]bool, len(rows))
	var cell [len(faultColumns)]int
	views := 0
	var walk func(c int)
	walk = func(c int) {
		if c < len(cell) {
			for cell[c] = range faultColumns[c].values {
				walk(c + 1)
			}
			return
		}
		kind, op, own := RuleKind(cell[0]), disk.Op(cell[1]), cell[3] == 1
		if !own && kind != KindTransient && kind != KindFailDisk {
			return // every access is the other kinds' own
		}
		views++
		r := Rule{Kind: kind, After: 4, Op: op, Disk: 1, Head: true, Bit: 13, Block: 5}
		v := view{op: op, clock: position(cell[2]), own: own}
		dec, fired := decide(r, v)
		name := decisionName(t, r, dec)
		var hit []int
		for i, row := range rows {
			if rowMatches(row, cell) {
				hit = append(hit, i)
			}
		}
		if len(hit) != 1 {
			var lines []int
			for _, i := range hit {
				lines = append(lines, rows[i].line)
			}
			t.Errorf("%v %v: matches the rows on DESIGN.md lines %v, want exactly one", r, cell, lines)
			return
		}
		row := rows[hit[0]]
		used[hit[0]] = true
		if row.decision != name || row.fires != fired {
			t.Errorf("%v %v: DESIGN.md:%d says %s (fires %v), decide says %s (fires %v)", r, cell, row.line, row.decision, row.fires, name, fired)
		}
		// An access that proceeds and is of the op the rule's clock counts
		// takes the rule's index: the rule must fire there, or be 1(d)'s.
		takes := own && position(cell[2]) == at && cell[5] == 0 && (kind == KindTransient || op.IsWrite())
		if takes && !fired != row.roadmap {
			t.Errorf("%v %v: takes the rule's index and leaves it armed %v, DESIGN.md:%d marked 1(d) %v", r, cell, !fired, row.line, row.roadmap)
		}
	}
	walk(0)
	for i, u := range used {
		if !u {
			t.Errorf("DESIGN.md:%d decides no view", rows[i].line)
		}
	}
	t.Logf("%d views, %d rows", views, len(rows))
}

func rowMatches(r faultRow, cell [len(faultColumns)]int) bool {
	for c, i := range cell {
		if r.match[c]&(1<<i) == 0 {
			return false
		}
	}
	return true
}

// FuzzParseSchedule: ParseSchedule never panics, and a schedule it accepts
// prints to a string that parses back to the same schedule.  The seeds are
// one rule of each kind and every schedule the crash regressions replay.
func FuzzParseSchedule(f *testing.F) {
	f.Add(Schedule{CrashAfterNWrites(9), TornWrite(3, false), TransientError(disk.OpReadMeta, 2), BitFlip(5, 7),
		FailDisk(2, 11), LostWrite(4), Misdirected(6, 21)}.String())
	src, err := os.ReadFile("../../rda/crashcheck/regression_test.go")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`"([^"]*@[^"]*)"`).FindAllStringSubmatch(string(src), -1) {
		f.Add(m[1])
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := ParseSchedule(s)
		if err != nil || len(sched) == 0 {
			return // the empty schedule prints as a note, not as a schedule
		}
		back, err := ParseSchedule(sched.String())
		if err != nil || !slices.Equal(back, sched) {
			t.Fatalf("%q parses to %v, which parses back to %v, %v", s, sched, back, err)
		}
	})
}
