// Command ace generates bounded workload sets (the Automatic Crash
// Explorer, §5.2).
//
//	ace -profile seq-1              # print the seq-1 workloads
//	ace -profile seq-2 -count      	# count without building (Table 4 column)
//	ace -seq 2 -max 10              # first ten seq-2 workloads
//	ace -show-bounds                # print the Table 3 bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"b3"
)

func main() {
	var (
		profile    = flag.String("profile", "", "Table 4 profile: seq-1 | seq-2 | seq-3-data | seq-3-metadata | seq-3-nested")
		seq        = flag.Int("seq", 0, "sequence length with default bounds (alternative to -profile)")
		countOnly  = flag.Bool("count", false, "only count workloads (Table 4 reproduction)")
		max        = flag.Int64("max", 0, "stop after this many workloads (0 = all)")
		showBounds = flag.Bool("show-bounds", false, "print the Table 3 bounds and exit")
	)
	flag.Parse()

	if *showBounds {
		b := b3.DefaultBounds(3)
		fmt.Println("Table 3: Bounds used by ACE")
		fmt.Printf("  number of operations : at most %d core ops per workload\n", b.SeqLen)
		fmt.Printf("  operations           : %d (%v)\n", len(b.Ops), b.Ops)
		fmt.Printf("  files and directories: %v in %v\n", b.Files, b.Dirs)
		fmt.Printf("  data operations      : %d write classes, %d falloc variants\n",
			len(b.WriteSems), len(b.FallocVariants))
		fmt.Printf("  initial FS state     : clean 100MB image\n")
		return
	}

	var bounds b3.Bounds
	switch {
	case *profile != "":
		var err error
		bounds, err = b3.ProfileBounds(b3.ProfileName(*profile))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *seq > 0:
		bounds = b3.DefaultBounds(*seq)
	default:
		fmt.Fprintln(os.Stderr, "ace: need -profile or -seq (try -profile seq-1)")
		os.Exit(2)
	}

	start := time.Now()
	var n int64
	var err error
	if *countOnly {
		// Counting builds no workload; -max caps the count.
		n, err = b3.CountWorkloads(bounds)
		if *max > 0 {
			n = min(n, *max)
		}
	} else {
		var emitted int64
		n, err = b3.GenerateWorkloads(bounds, func(w *b3.Workload) bool {
			emitted++
			fmt.Printf("# workload %s (skeleton: %s)\n%s\n", w.ID, w.Skeleton(), w)
			return *max == 0 || emitted < *max
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "ace: %d workloads in %.2fs (%.0f workloads/s)\n",
		n, elapsed.Seconds(), float64(n)/elapsed.Seconds())
}
