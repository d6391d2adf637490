// Command perfbench is the repository's benchmark: checkpoint,
// durability and restore cost of the simulated single level store,
// measured end to end and per layer, on both clocks (virtual
// cost-model time and real wall-clock and allocation cost).
//
//	bash perfbench/run.sh --workload redis-incr --seed 1 --seconds 8 --trace 0
//
// Each run builds its machine anew several times (segments):
// setup, a fixed exact window of operations whose virtual metrics and
// counters depend only on the seed, a timed closed loop driven by one
// goroutine, and a correctness oracle outside the timed phase. With
// --trace 0 the last line of output is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// from traced segments, which alternate with untraced ones on the same
// seeds so the trace can prove it changed no virtual metric or counter
// and report its own overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specs are the workloads. Every segment runs warmOps operations in
// the exact window and then capOps timed operations, so each segment
// replays the same amount of history whatever the machine's speed;
// the run repeats segments until their timed phases reach --seconds.
var specs = []spec{
	{name: "redis-incr", make: newRedisIncr, warmOps: 4, capOps: 16, tailPct: 90},
	{name: "fleet-clones", make: newFleetClones, warmOps: 1024, capOps: 64 * fleetGroups, tailPct: 95},
	{name: "quorum-ship", make: newQuorumShip, warmOps: 4, capOps: 12, tailPct: 90},
	{name: "faas-restore", make: newFaasRestore, warmOps: 64, capOps: 4096, tailPct: 90},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// subSeed derives segment j's seed; segment 0 runs on the seed itself.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*0x2545F4914F6CDD1D }

type options struct {
	workload string
	seed     int64
	seconds  int
	budget   time.Duration // timed phases per run; --seconds
	trace    bool
	scale    int // divides working-set sizes; smoke tests set it, runs leave it 1
	out      string
}

// minSegments is the fewest segments an untraced run makes, so
// setup_s and heap_peak_mb are medians of at least three.
const minSegments = 3

func main() {
	if segmentChild() {
		return
	}
	o := options{scale: 1}
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 8, "timed seconds per run (summed over segments)")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from traced segments")
	flag.StringVar(&o.out, "out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the determinism self-check for --workload (all workloads when empty)")
	flag.Parse()
	o.trace = trace == 1
	o.budget = time.Duration(o.seconds) * time.Second

	if selfcheck {
		if err := runSelfcheck(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	sp, ok := specByName(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	steal0, total0 := cpuSteal()
	res := run(sp, o)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Printf("# cpu steal during the run: %.2f%% of CPU time (time the host gave to others)\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	res.print(os.Stdout, o.trace)
	if o.trace && len(res.spans) > 0 {
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.jsonl.gz", sp.name, o.seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("# spans of the first traced segment: %d written to %s\n", len(res.spans), path)
		}
	}
	line, _ := json.Marshal(res.summary(o.trace))
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// cpuSteal reads the steal and total jiffies of all CPUs from
// /proc/stat (zeros where the OS does not expose them).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSS reports this process's peak resident set size where the OS
// exposes it (Linux), or "".
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			return strings.TrimSpace(strings.TrimPrefix(l, "VmHWM:"))
		}
	}
	return ""
}

func workloadNames() string {
	var ns []string
	for _, sp := range specs {
		ns = append(ns, sp.name)
	}
	return strings.Join(ns, ", ")
}

// result gathers every segment of one run.
type result struct {
	sp       spec
	plain    []*segment // untraced segments
	traced   []*segment
	spans    []span                   // timed-phase spans of the first traced segment
	totals   map[string]time.Duration // span time by span name, all traced segments
	self     map[string]time.Duration // self time by layer, all traced segments
	errs     []string
	mismatch []string // exact metrics the traced run failed to reproduce
	varied   []string // exact metrics the untraced program did not repeat either
}

// run executes segments until the timed phases add up to --seconds.
// Untraced runs use at least minSegments segments; traced runs use at
// least two pairs of (untraced, traced) segments on the same seed.
func run(sp spec, o options) *result {
	res := &result{sp: sp, totals: map[string]time.Duration{}, self: map[string]time.Duration{}}
	budget := o.budget
	var timed time.Duration
	for j := 0; ; j++ {
		if o.trace {
			if j >= 2 && timed >= budget {
				break
			}
		} else if j >= minSegments && timed >= budget {
			break
		}
		seed := subSeed(o.seed, j)
		seg, err := runSegmentProc(segmentJob{sp.name, seed, o.scale, budget, false}, 0)
		res.plain = append(res.plain, seg)
		timed += seg.Timed
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("segment %d (seed %d): %v", j, seed, err))
			return res
		}
		fmt.Printf("# segment %d seed %d: setup %.3fs, %d ops in %.3fs, oracle checked %d, peak RSS %s\n",
			j, seed, seg.Setup.Seconds(), seg.Ops, seg.Timed.Seconds(), seg.Checked, seg.PeakRSS)
		if !o.trace {
			continue
		}
		tseg, err := runSegmentProc(segmentJob{sp.name, seed, o.scale, budget, true}, 0)
		res.traced = append(res.traced, tseg)
		timed += tseg.Timed
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("traced segment %d (seed %d): %v", j, seed, err))
			return res
		}
		fmt.Printf("# traced segment %d seed %d: setup %.3fs, %d ops in %.3fs, %d spans\n",
			j, seed, tseg.Setup.Seconds(), tseg.Ops, tseg.Timed.Seconds(), len(tseg.Spans))
		if err := res.checkReproduced(sp, o, j, seed, seg, tseg); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("untraced rerun of segment %d (seed %d): %v", j, seed, err))
			return res
		}
		// The timed phase's spans: each operation's, and the detached ones.
		var timedSpans []span
		for _, s := range tseg.Spans {
			if s.Op >= 0 || s.Detached {
				timedSpans = append(timedSpans, s)
			}
		}
		// Span IDs are per segment, so times are summed segment by segment.
		for k, v := range spanTotals(timedSpans) {
			res.totals[k] += v
		}
		for k, v := range selfTimes(timedSpans) {
			res.self[k] += v
		}
		if res.spans == nil {
			res.spans = timedSpans
		}
	}
	return res
}

// checkReproduced compares the exact window of a traced segment with
// its untraced twin. A metric that differs is run untraced once more:
// if the untraced program does not repeat it either, the metric is
// nondeterministic and only noted; otherwise the trace changed it.
func (res *result) checkReproduced(sp spec, o options, j int, seed int64, plain, traced *segment) error {
	var bad []string
	for _, k := range exactKeys(sp.name) {
		if plain.Exact[k] != traced.Exact[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	again, err := runSegmentProc(segmentJob{sp.name, seed, o.scale, o.budget, false}, 0)
	if err != nil {
		return err
	}
	for _, k := range bad {
		a, b := plain.Exact[k], traced.Exact[k]
		if again.Exact[k] != a {
			res.varied = append(res.varied, fmt.Sprintf("segment %d %s: untraced %v and %v, traced %v", j, k, a, again.Exact[k], b))
			continue
		}
		res.mismatch = append(res.mismatch, fmt.Sprintf("segment %d %s: untraced %v twice, traced %v", j, k, a, b))
	}
	return nil
}

func (res *result) correct() bool { return len(res.errs) == 0 && len(res.mismatch) == 0 }

func (res *result) attemptedFailed() (attempted, failed int) {
	for _, seg := range append(append([]*segment(nil), res.plain...), res.traced...) {
		attempted += seg.Attempts + seg.Checked
	}
	// A shed checkpoint fails its operation, so it is among errs.
	failed = len(res.errs) + len(res.mismatch)
	return max(attempted, 1), failed
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from the untraced segments.
func (res *result) endToEnd() (map[string]metric, string) {
	var setups, peaks, lat []float64
	ops := 0
	var timed time.Duration
	for _, seg := range res.plain {
		setups = append(setups, seg.Setup.Seconds())
		peaks = append(peaks, float64(seg.HeapPeak)/(1<<20))
		lat = append(lat, seg.OpLat...)
		ops += seg.Ops
		timed += seg.Timed
	}
	tv, pct, beyond := tailAt(lat, res.sp.tailPct)
	note := fmt.Sprintf("op_tail_us is p%.2f of %d samples (%d beyond it)", pct, len(lat), beyond)
	if rv, rp, ok := tail(lat); ok {
		note += fmt.Sprintf("; the highest percentile with %d beyond, p%.3f, is %.1f us (not a metric: it does not repeat run to run)", minBeyond, rp, rv)
	}
	var vmean float64
	if len(res.plain) > 0 && res.plain[0].Exact != nil {
		vmean = res.plain[0].Exact["vop_mean_us"]
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {ratio(float64(ops), timed.Seconds()), "1/s"},
		"op_p50_us":    {median(lat), "us"},
		"op_tail_us":   {tv, "us"},
		"heap_peak_mb": {median(peaks), "MB"},
		"vop_mean_us":  {vmean, "us"},
	}, note
}

// perLayer computes the per-layer metrics: wall times from the traced
// segments' timed phases, exact counters and virtual means from the
// first traced segment's exact window, and the tracing overhead from
// the untraced segments paired with them.
func (res *result) perLayer() map[string]metric {
	out := make(map[string]metric)
	if len(res.traced) == 0 {
		return out
	}
	for name, v := range res.traced[0].Exact {
		if name != "vop_mean_us" {
			out[name] = metric{v, unitOf(name)}
		}
	}
	var ops int
	var timed time.Duration
	var calls [nCalls]time.Duration
	var alloc, mallocs, gcs, pause float64
	qmax, sheds := 0, 0
	var memPeak int64
	for _, seg := range res.traced {
		ops += seg.Ops
		timed += seg.Timed
		for i := range calls {
			calls[i] += seg.Calls[i]
		}
		alloc += float64(seg.GC.AllocBytes)
		mallocs += float64(seg.GC.Mallocs)
		gcs += float64(seg.GC.Cycles)
		pause += float64(seg.GC.PauseNs)
		qmax = max(qmax, seg.QMax)
		sheds += seg.Sheds
		memPeak = max(memPeak, seg.MemPeak)
	}
	n := float64(max(ops, 1))
	perOp := func(d time.Duration) float64 { return us(d) / n }
	set := func(name string, v float64) { out[name] = metric{v, unitOf(name)} }
	set("vm.write_us", perOp(calls[callVMWrite]))
	set("kernel.step_us", perOp(calls[callStep]))
	set("kernel.exit_us", perOp(calls[callExit]))
	set("core.checkpoint_us", perOp(calls[callCheckpoint]))
	set("core.sync_us", perOp(calls[callSync]))
	set("core.restore_us", perOp(calls[callRestore]))
	set("core.unpersist_us", perOp(calls[callUnpersist]))
	set("objstore.load_us", perOp(calls[callLoad]))
	set("core.queue_depth_max", float64(qmax))
	set("core.sheds", float64(sheds))
	set("core.fleet_mem_peak_bytes", float64(memPeak))

	set("storage.write_us", perOp(res.totals["storage.write"]))
	set("storage.read_us", perOp(res.totals["storage.read"]))
	set("netback.link_write_us", perOp(res.totals["netback.link_write"]))
	for _, l := range []string{"bench", "vm", "kernel", "core", "objstore", "storage", "netback"} {
		set(l+".self_us", perOp(res.self[l]))
	}

	set("go.alloc_bytes_per_op", alloc/n)
	set("go.mallocs_per_op", mallocs/n)
	set("go.gc_cycles", gcs/n)
	set("go.gc_pause_us", pause/1e3/n)

	var pops int
	var ptimed time.Duration
	for _, seg := range res.plain {
		pops += seg.Ops
		ptimed += seg.Timed
	}
	set("trace.overhead_frac", ratio(ratio(float64(pops), ptimed.Seconds()), ratio(float64(ops), timed.Seconds()))-1)
	return out
}

// summary is the JSON object printed as the last line.
func (res *result) summary(trace bool) map[string]any {
	attempted, failed := res.attemptedFailed()
	var ms map[string]metric
	if trace {
		ms = res.perLayer()
	} else {
		ms, _ = res.endToEnd()
	}
	return map[string]any{"correct": res.correct(), "attempted": attempted, "failed": failed, "metrics": ms}
}

func (res *result) print(w *os.File, trace bool) {
	for _, e := range res.errs {
		fmt.Fprintln(w, "# FAILED:", e)
	}
	for _, m := range res.mismatch {
		fmt.Fprintln(w, "# TRACE CHANGED AN EXACT METRIC:", m)
	}
	for _, m := range res.varied {
		fmt.Fprintln(w, "# nondeterministic, not checked:", m)
	}
	attempted, failed := res.attemptedFailed()
	fmt.Fprintf(w, "# %s: attempted %d, failed %d, fail_frac %.6f\n", res.sp.name, attempted, failed, ratio(float64(failed), float64(attempted)))
	if len(res.plain) > 0 && res.plain[0].Exact != nil {
		ex := res.plain[0].Exact
		fmt.Fprintf(w, "# sharing: objstore.dedup_ratio %.4f (dedup hits / page puts), netback.ref_ratio %.4f (ref / (sent+ref))\n",
			ex["objstore.dedup_ratio"], ex["netback.ref_ratio"])
	}
	e2e, note := res.endToEnd()
	fmt.Fprintln(w, "# "+note)
	printMetrics(w, "end-to-end", e2e)
	if trace {
		printMetrics(w, "per-layer", res.perLayer())
	}
}

func printMetrics(w *os.File, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
