package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/diskarray"
	"repro/internal/fault"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestVerifiedReadRepairsEveryMember plants one silent fault on one member
// of a group — a data page, or the P or Q page of the index that describes
// the group — and reads the member through its verified read (ReadPage,
// readRed), on a whole array and beside a dead disk, with P and with P+Q.
// The read must return the member's right bytes and leave it verifying on
// the platter under the header its kind's rule gives it: the data page its
// flip's pairing echo; a redundancy page its own header after a checksum
// failure, else its lockstep mirror's, else a fresh committed one.  One dead
// disk beside the fault on single parity is beyond the budget: the read
// returns ErrUnrecoverableCorruption instead.
func TestVerifiedReadRepairsEveryMember(t *testing.T) {
	const size, g = page.MinSize, page.GroupID(3)
	for _, q := range []bool{false, true} {
		for _, dead := range []bool{false, true} {
			for _, member := range []string{"data", "P", "Q"} {
				for _, kind := range []string{"bitflip", "lostwrite", "misdirected"} {
					if member == "Q" && !q {
						continue
					}
					t.Run(fmt.Sprintf("q=%v/dead=%v/%s/%s", q, dead, member, kind), func(t *testing.T) {
						arr, err := diskarray.New(diskarray.Config{Kind: diskarray.RAID5Twin, DataDisks: 4, NumPages: 48, PageSize: size, QParity: q})
						if err != nil {
							t.Fatal(err)
						}
						s := NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
						pages := arr.GroupPages(g)
						vals := make([]page.Buf, len(pages))
						for i, p := range pages {
							vals[i] = pattern(size, byte(16*i+1))
							if err := s.WriteCommitted(p, vals[i], nil); err != nil {
								t.Fatal(err)
							}
						}
						// The last flip pairs the last page with the index.
						p, twin := pages[len(pages)-1], s.describingTwin(g)
						idx, _ := arr.PeekMeta(g, diskarray.P.Twin(twin))
						if !idx.PairedSet || idx.DirtyPage != p {
							t.Fatalf("setup: index header %+v does not pair page %d", idx, p)
						}
						want, loc := vals[len(vals)-1], arr.DataLoc(p)
						var r diskarray.Red
						if member != "data" {
							r = diskarray.P.Twin(twin)
							if member == "Q" {
								r.Eq = diskarray.Q
							}
							want, loc = r.Eq.Compute(size, page.Raw(vals)...), arr.Loc(g, r)
						}
						if dead {
							d := arr.DataLoc(pages[0]).Disk
							if err := arr.FailDisk(d); err != nil {
								t.Fatal(err)
							}
							s.EnterDegraded(d)
						}

						drive := arr.Disk(loc.Disk)
						switch kind {
						case "bitflip":
							err = drive.Corrupt(loc.Block)
						case "lostwrite":
							// Acknowledged, never written: the ledger expects
							// bytes the platter does not hold.
							s.Arr.SetInjector(fault.NewPlane(fault.Schedule{fault.LostWrite(0)}))
							if member == "data" {
								err = arr.WriteData(p, pattern(size, 0xEE), disk.Meta{})
							} else {
								err = arr.Write(g, r, pattern(size, 0xEE), idx)
							}
						case "misdirected":
							// A neighbour's sector lands on the member: a
							// foreign payload, header and location stamp.
							src := loc.Block ^ 1
							b, _ := drive.PeekData(src, nil)
							m, _ := drive.PeekMeta(src)
							s.Arr.SetInjector(fault.NewPlane(fault.Schedule{fault.Misdirected(0, loc.Block)}))
							err = drive.Write(src, b, m)
						}
						s.Arr.SetInjector(nil)
						if err != nil {
							t.Fatal(err)
						}

						var got page.Buf
						if member == "data" {
							got, err = s.ReadPage(p, nil)
						} else {
							got, _, err = s.readRed(g, r, nil)
						}
						if dead && !q {
							if !errors.Is(err, ErrUnrecoverableCorruption) {
								t.Fatalf("a fault beside a dead disk on single parity: err %v, want ErrUnrecoverableCorruption", err)
							}
							return
						}
						if err != nil || !got.Equal(want) {
							t.Fatalf("verified read: err %v, right bytes %v", err, err == nil && got.Equal(want))
						}

						var m disk.Meta
						if member == "data" {
							got, m, err = arr.ReadData(p, nil)
						} else {
							got, m, err = arr.Read(g, r, nil)
						}
						if err != nil || !got.Equal(want) {
							t.Fatalf("the member on the platter afterwards: err %v", err)
						}
						switch {
						case member == "data":
							if m != (disk.Meta{Timestamp: idx.Timestamp}) {
								t.Errorf("data header %+v, want the pairing echo of %+v", m, idx)
							}
						case kind == "bitflip" || q:
							if m != idx {
								t.Errorf("%s header %+v, want the index's %+v", member, m, idx)
							}
						default:
							if m.State != disk.StateCommitted || m.Timestamp <= idx.Timestamp || m.PairedSet {
								t.Errorf("%s header %+v, want a fresh committed one", member, m)
							}
						}
					})
				}
			}
		}
	}
}
