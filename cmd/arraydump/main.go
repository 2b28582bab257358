// Command arraydump prints the physical layout of each redundant disk
// array organization, reproducing the paper's structural figures:
// Figure 1 (RAID-5 rotated parity), Figure 2 (parity striping), Figure 4
// (data striping with twin parity) and Figure 5 (parity striping with
// twin parity).
//
// Usage:
//
//	arraydump [-layout raid5|paritystripe|raid5twin|paritystripetwin] [-n dataDisks] [-groups g]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/diskarray"
	"repro/internal/page"
)

func main() {
	layout := flag.String("layout", "raid5", "raid5, paritystripe, raid5twin or paritystripetwin")
	n := flag.Int("n", 3, "data pages per parity group (N)")
	groups := flag.Int("groups", 8, "number of parity groups to show")
	flag.Parse()

	var kind diskarray.Kind
	var figure string
	switch *layout {
	case "raid5":
		kind, figure = diskarray.RAID5, "Figure 1: RAID with rotated parity"
	case "paritystripe":
		kind, figure = diskarray.ParityStripe, "Figure 2: parity striping"
	case "raid5twin":
		kind, figure = diskarray.RAID5Twin, "Figure 4: data striping with twin parity"
	case "paritystripetwin":
		kind, figure = diskarray.ParityStripeTwin, "Figure 5: parity striping with twin parity"
	default:
		fmt.Fprintf(os.Stderr, "arraydump: unknown layout %q\n", *layout)
		os.Exit(2)
	}

	arr, err := diskarray.New(diskarray.Config{
		Kind: kind, DataDisks: *n, NumPages: *groups * *n, PageSize: page.MinSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "arraydump: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s (N=%d, %d disks, %d groups)\n\n", figure, *n, arr.NumDisks(), arr.NumGroups())

	// Build the block → label map.
	labels := make(map[diskarray.Loc]string)
	for p := 0; p < arr.NumPages(); p++ {
		pid := page.PageID(p)
		labels[arr.DataLoc(pid)] = fmt.Sprintf("D%-3d", p)
	}
	for g := 0; g < arr.NumGroups(); g++ {
		gid := page.GroupID(g)
		for twin := 0; twin < arr.ParityPages(); twin++ {
			name := fmt.Sprintf("P%d", g)
			if arr.ParityPages() == 2 {
				if twin == 0 {
					name = fmt.Sprintf("P%d", g)
				} else {
					name = fmt.Sprintf("P%d'", g)
				}
			}
			labels[arr.Loc(gid, diskarray.P.Twin(twin))] = fmt.Sprintf("%-4s", name)
		}
	}

	blocks := arr.Disk(0).NumBlocks()
	fmt.Print("block ")
	for d := 0; d < arr.NumDisks(); d++ {
		fmt.Printf(" disk%-2d", d)
	}
	fmt.Println()
	for b := 0; b < blocks; b++ {
		fmt.Printf("%5d ", b)
		for d := 0; d < arr.NumDisks(); d++ {
			lbl, ok := labels[diskarray.Loc{Disk: d, Block: b}]
			if !ok {
				lbl = " .  "
			}
			fmt.Printf(" %5s ", lbl)
		}
		fmt.Println()
	}
	fmt.Printf("\nstorage overhead: %.1f%% of raw capacity is parity\n", 100*arr.StorageOverhead())
}
