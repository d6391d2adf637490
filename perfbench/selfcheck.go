package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// runSelfcheck runs the exact window of each workload twice on one seed
// at the default GOMAXPROCS and once at GOMAXPROCS=1, each in a fresh
// process, then lists every exact metric that repeated bit for bit and
// every one that did not, with its spread ((max−min) ÷ |mean|).
func runSelfcheck(o options) error {
	list := specs
	if o.workload != "" {
		sp, ok := specByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		list = []spec{sp}
	}
	procs := runtime.GOMAXPROCS(0)
	for _, sp := range list {
		var runs []map[string]float64
		for i, p := range []int{0, 0, 1} {
			seg, err := runSegmentProc(segmentJob{sp.name, o.seed, o.scale, 100 * time.Millisecond, false}, p)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, i, err)
			}
			runs = append(runs, seg.Exact)
		}
		same, diff := compareExact(runs)
		fmt.Printf("%s seed %d (GOMAXPROCS %d, %d, 1):\n  repeats exactly: %v\n", sp.name, o.seed, procs, procs, same)
		if len(diff) == 0 {
			fmt.Println("  varies: none")
		}
		for _, d := range diff {
			fmt.Printf("  varies: %s\n", d)
		}
	}
	return nil
}

// compareExact splits the metric names into those equal in every run
// and a description of each one that differs.
func compareExact(runs []map[string]float64) (same, diff []string) {
	var names []string
	for n := range runs[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, r := range runs {
			v := r[n]
			lo, hi, sum = math.Min(lo, v), math.Max(hi, v), sum+v
		}
		if lo == hi {
			same = append(same, n)
			continue
		}
		vals := make([]string, len(runs))
		for i, r := range runs {
			vals[i] = fmt.Sprintf("%.6g", r[n])
		}
		diff = append(diff, fmt.Sprintf("%s %v spread %.4f", n, vals,
			ratio(hi-lo, math.Abs(sum/float64(len(runs))))))
	}
	return same, diff
}
