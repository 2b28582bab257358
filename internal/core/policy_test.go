package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/page"
)

// canSteal reports whether the policy lets transaction tx steal page p
// without UNDO logging, as the engine asks it for a frame with one modifier
// and no residue.
func canSteal(s *Store, p page.PageID, tx page.TxID) bool {
	v, _ := s.ViewOf(PageWriteBack, s.Arr.GroupOf(p), p, tx)
	v.Modifiers = 1
	return Decide(v) == Steal
}

// policyColumns names the values of the View's fields in the order of
// DESIGN.md's table, one column each.
var policyColumns = [...]struct {
	header string
	values []string
}{
	{"trigger", []string{"page write-back", "group flush", "record write", "disk loss"}},
	{"RDA", []string{"off", "on"}},
	{"logging", []string{"page", "record"}},
	{"group degraded", []string{"no", "yes"}},
	{"Dirty_Set", []string{"clean", "same steal", "other txn", "other page"}},
	{"modifiers", []string{"0", "1", "many"}},
	{"residue", []string{"no", "yes"}},
	{"dirty pages", []string{"0", "1", "many"}},
	{"whole stripe", []string{"no", "yes"}},
}

// policyView is the View whose column c holds value index at[c].
func policyView(at [len(policyColumns)]int) View {
	return View{
		Trigger:       Trigger(at[0]),
		RDA:           at[1] == 1,
		RecordLogging: at[2] == 1,
		GroupDegraded: at[3] == 1,
		Dirty:         DirtyState(at[4]),
		Modifiers:     at[5],
		Residue:       at[6] == 1,
		DirtyPages:    at[7],
		WholeStripe:   at[8] == 1,
	}
}

// policyRow is one row of the table: per column, the set of value indexes
// it matches (a bit each), and its action.
type policyRow struct {
	line   int
	match  [len(policyColumns)]uint
	action Action
}

func (r policyRow) matches(at [len(policyColumns)]int) bool {
	for c, i := range at {
		if r.match[c]&(1<<i) == 0 {
			return false
		}
	}
	return true
}

// parsePolicyTable reads the write-back policy table from DESIGN.md.
func parsePolicyTable(t *testing.T) []policyRow {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []policyRow
	inTable := false
	for n, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		switch {
		case !strings.HasPrefix(line, "|"):
			if inTable {
				return rows
			}
			continue
		case cells[0] == policyColumns[0].header:
			for c, col := range policyColumns {
				if cells[c] != col.header {
					t.Fatalf("DESIGN.md:%d: column %d is %q, want %q", n+1, c, cells[c], col.header)
				}
			}
			inTable = true
			continue
		case !inTable || strings.HasPrefix(line, "|---"):
			continue
		}
		if len(cells) != len(policyColumns)+2 {
			t.Fatalf("DESIGN.md:%d: %d cells, want %d", n+1, len(cells), len(policyColumns)+2)
		}
		row := policyRow{line: n + 1}
		for c, col := range policyColumns {
			for _, name := range strings.Split(cells[c], " / ") {
				switch {
				case name == "·":
					row.match[c] |= 1<<len(col.values) - 1
					continue
				case col.header == "Dirty_Set" && name == "dirty":
					row.match[c] |= 1<<SameSteal | 1<<OtherTxn | 1<<OtherPage
					continue
				}
				i := indexOf(col.values, name)
				if i < 0 {
					t.Fatalf("DESIGN.md:%d: %s %q is none of %q", n+1, col.header, name, col.values)
				}
				row.match[c] |= 1 << i
			}
		}
		row.action = Action(cells[len(policyColumns)])
		rows = append(rows, row)
	}
	if !inTable {
		t.Fatal("DESIGN.md has no write-back policy table")
	}
	return rows
}

func indexOf(values []string, name string) int {
	for i, v := range values {
		if v == name {
			return i
		}
	}
	return -1
}

// TestDecideMatchesDesignTable enumerates every View and checks that exactly
// one row of DESIGN.md's policy table matches it and that the row's action
// is Decide's.  The rows are disjoint and cover every view, so any edit of
// a cell — widening, narrowing or changing a condition, or changing an
// action — fails here unless Decide changes with it.
func TestDecideMatchesDesignTable(t *testing.T) {
	rows := parsePolicyTable(t)
	used := make([]bool, len(rows))
	var at [len(policyColumns)]int
	views := 0
	var walk func(c int)
	walk = func(c int) {
		if c < len(at) {
			for at[c] = range policyColumns[c].values {
				walk(c + 1)
			}
			return
		}
		views++
		v := policyView(at)
		var hit []int
		for i, r := range rows {
			if r.matches(at) {
				hit = append(hit, i)
			}
		}
		switch {
		case len(hit) != 1:
			var lines []int
			for _, i := range hit {
				lines = append(lines, rows[i].line)
			}
			t.Errorf("%+v matches the rows on DESIGN.md lines %v, want exactly one", v, lines)
		case rows[hit[0]].action != Decide(v):
			t.Errorf("%+v: DESIGN.md:%d says %s, Decide says %s", v, rows[hit[0]].line, rows[hit[0]].action, Decide(v))
		default:
			used[hit[0]] = true
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

// TestDecideDoesNotAllocate: building a view and deciding costs no
// allocation for any trigger, clean group or dirty.
func TestDecideDoesNotAllocate(t *testing.T) {
	s := newStore(t, diskarray.RAID5Twin)
	tx := s.TM.Begin()
	if err := s.StealNoLog(0, pattern(page.MinSize, 3), nil, tx, nil); err != nil {
		t.Fatal(err)
	}
	dirty, clean := s.Arr.GroupOf(0), s.Arr.GroupOf(page.PageID(s.Arr.NumPages()-1))
	var got Action
	for trig := PageWriteBack; trig <= DiskLoss; trig++ {
		for _, g := range []page.GroupID{dirty, clean} {
			allocs := testing.AllocsPerRun(100, func() {
				v, _ := s.ViewOf(trig, g, 0, tx.ID)
				v.Modifiers, v.Residue = 1, false
				v.DirtyPages, v.WholeStripe = min(s.Arr.GroupWidth(), 2), true
				got = Decide(v)
			})
			if allocs != 0 {
				t.Errorf("trigger %d, group %d: %v allocations per view and decision (%s), want 0", trig, g, allocs, got)
			}
		}
	}
}
