package main

import (
	"fmt"
	"runtime"
	"time"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// callID names a public call the benchmark makes into one layer. Each
// is timed from the outside on every run and wrapped in a span on
// traced runs.
type callID int

const (
	callVMWrite callID = iota
	callCheckpoint
	callSync
	callRestore
	callLoad
	callStep
	callExit
	callUnpersist
	nCalls
)

var callNames = [nCalls]string{
	callVMWrite:    "vm.write",
	callCheckpoint: "core.checkpoint",
	callSync:       "core.sync",
	callRestore:    "core.restore",
	callLoad:       "objstore.load",
	callStep:       "kernel.step",
	callExit:       "kernel.exit",
	callUnpersist:  "core.unpersist",
}

// rec accumulates one segment's measurements. The load goroutine
// brackets each public call with start/stop.
type rec struct {
	tr    *tracer
	calls [nCalls]time.Duration

	opLat []float64 // wall µs per operation, as the workload's client sees it
	ops   int
	sheds int

	virtual bool // record each operation's virtual breakdown
	qmax    int  // deepest flush queue seen after a Checkpoint call
}

type timing struct {
	id    callID
	t0    time.Time
	spanI int32
}

func (r *rec) start(id callID) timing {
	open := r.tr.begin
	if id == callSync {
		open = r.tr.beginWait
	}
	return timing{id: id, spanI: open(callNames[id]), t0: time.Now()}
}

func (r *rec) stop(t timing) {
	r.calls[t.id] += time.Since(t.t0)
	r.tr.end(t.spanI)
}

// checkpoint runs one timed Orchestrator.Checkpoint and notes sheds
// and queue depth.
func (r *rec) checkpoint(o *core.Orchestrator, g *core.Group) (core.CheckpointBreakdown, error) {
	t := r.start(callCheckpoint)
	bd, err := o.Checkpoint(g, core.CheckpointOpts{})
	r.stop(t)
	if bd.Shed {
		r.sheds++
	}
	if q := g.QueueDepth(); q > r.qmax {
		r.qmax = q
	}
	return bd, err
}

func (r *rec) sync(o *core.Orchestrator, g *core.Group) error {
	t := r.start(callSync)
	err := o.Sync(g)
	r.stop(t)
	return err
}

// counters is a snapshot of every exact counter the layers export.
type counters struct {
	meter struct{ cow, copies, pte, pageIns, zeroFills int64 }
	obj   objstore.Stats
	dev   storage.DeviceStats
	fleet core.FleetStats
	net   struct{ sent, ref, resends, needs, received int64 }
}

func (c *counters) readMeter(m *vm.Meter) {
	c.meter.cow = m.CowFaults.Load()
	c.meter.copies = m.PageCopies.Load()
	c.meter.pte = m.PTEOps.Load()
	c.meter.pageIns = m.PageIns.Load()
	c.meter.zeroFills = m.ZeroFills.Load()
}

// vop is one operation's virtual (cost-model) record.
type vop struct {
	stop, meta, lazy, flush time.Duration // checkpoint breakdown
	restore, read           time.Duration // restore breakdown
	objects, metaBytes      int
	pages                   int // pages captured
}

// workload is one closed-loop scenario. setup builds the machine and
// makes its first full checkpoint durable; op runs one operation;
// drain makes everything checkpointed durable (the timed end of the
// loop); vops returns the virtual records of the operations run so
// far (read after drain, when flush times are final); oracle checks
// outputs against live state outside the timed phase.
type workload interface {
	setup(tr *tracer) error
	op(r *rec, n int) error
	drain(r *rec) error
	vops() []vop
	counters() counters
	oracle() (checked int, err error)
	teardown()
	// vopTime is the modeled latency of one operation as the client
	// sees it (the virtual counterpart of the wall op latency).
	vopTime(v vop) time.Duration
}

// spec fixes a workload's sizes.
type spec struct {
	name    string
	make    func(seed int64, scale int) workload
	warmOps int // operations in the exact (virtual and counter) window
	capOps  int // per-segment operation cap, which bounds memory
	// tailPct is the percentile op_tail_us reports: the highest round
	// percentile whose run-to-run spread stayed within its bound on a
	// shared 2-vCPU VM; a run with too few samples falls back to the
	// tail rule's own maximum (ten samples beyond).
	tailPct float64
}

// segment is one setup → exact window → timed phase → oracle pass,
// run in a process of its own (see runSegmentProc).
type segment struct {
	Setup    time.Duration
	Timed    time.Duration
	Ops      int
	OpLat    []float64
	HeapPeak uint64
	Calls    [nCalls]time.Duration
	Spans    []span
	Sheds    int
	QMax     int
	GC       gcStats // timed phase only
	MemPeak  int64   // the fleet runtime's high-water mark of in-flight image bytes
	Exact    map[string]float64
	Checked  int
	Attempts int
	PeakRSS  string // the segment process's peak resident set, where the OS reports it
}

// gcStats are Go runtime deltas over a timed phase.
type gcStats struct {
	AllocBytes, Mallocs, Cycles, PauseNs uint64
}

// runSegment runs one segment of workload sp on seed: capOps timed
// operations, cut short only if they take longer than budget.
func runSegment(sp spec, seed int64, scale int, budget time.Duration, traced bool) (*segment, error) {
	tr := newTracer(traced)
	w := sp.make(seed, scale)
	defer w.teardown()
	seg := &segment{}

	t0 := time.Now()
	if err := w.setup(tr); err != nil {
		return seg, fmt.Errorf("setup: %w", err)
	}
	seg.Setup = time.Since(t0)

	// Exact window: a fixed number of operations, drained, so every
	// virtual metric and counter below is a function of the seed.
	warm := &rec{tr: newTracer(false), virtual: true}
	before := w.counters()
	for i := 0; i < sp.warmOps; i++ {
		seg.Attempts++
		if err := w.op(warm, i); err != nil {
			return seg, fmt.Errorf("warm op %d: %w", i, err)
		}
	}
	if err := w.drain(warm); err != nil {
		return seg, fmt.Errorf("warm drain: %w", err)
	}
	seg.Exact = exactMetrics(w, before, w.counters(), sp.warmOps)
	seg.Sheds += warm.sheds

	// Timed phase.
	r := &rec{tr: tr, opLat: make([]float64, 0, 1024)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hs := startHeapSampler(time.Millisecond)
	start := time.Now()
	deadline := start.Add(budget)
	n, capOps := sp.warmOps, max(1, sp.capOps/scale)
	for r.ops < capOps {
		tr.setOp(int64(n))
		seg.Attempts++
		opSpan := tr.begin("bench.op")
		err := w.op(r, n)
		tr.end(opSpan)
		if err != nil {
			hs.Stop()
			return seg, fmt.Errorf("op %d: %w", n, err)
		}
		r.ops++
		n++
		if !time.Now().Before(deadline) {
			break
		}
	}
	tr.setOp(int64(n)) // the drain is timed and traced as one more operation
	drainSpan := tr.begin("bench.drain")
	err := w.drain(r)
	tr.end(drainSpan)
	tr.setOp(-1)
	if err != nil {
		hs.Stop()
		return seg, fmt.Errorf("drain: %w", err)
	}
	seg.Timed = time.Since(start)
	seg.HeapPeak = hs.Stop()
	runtime.ReadMemStats(&m1)
	seg.GC = gcStats{
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		Cycles:     uint64(m1.NumGC - m0.NumGC),
		PauseNs:    m1.PauseTotalNs - m0.PauseTotalNs,
	}
	seg.Ops, seg.OpLat, seg.Calls = r.ops, r.opLat, r.calls
	seg.Sheds += r.sheds
	seg.QMax = max(warm.qmax, r.qmax)
	seg.MemPeak = w.counters().fleet.MemPeak
	seg.Spans = tr.snapshot()

	checked, err := w.oracle()
	if err != nil {
		return seg, fmt.Errorf("oracle: %w", err)
	}
	seg.Checked = checked
	seg.PeakRSS = peakRSS()
	return seg, nil
}

// exactMetrics derives the per-operation counters and virtual means of
// the exact window.
func exactMetrics(w workload, a, b counters, ops int) map[string]float64 {
	n := float64(ops)
	per := func(x int64) float64 { return float64(x) / n }
	vs := w.vops()
	var stop, meta, lazy, flush, read, vopT []float64
	var objects, metaBytes []float64
	captured := 0.0
	for _, v := range vs {
		stop = append(stop, us(v.stop))
		meta = append(meta, us(v.meta))
		lazy = append(lazy, us(v.lazy))
		flush = append(flush, us(v.flush))
		read = append(read, us(v.read))
		objects = append(objects, float64(v.objects))
		metaBytes = append(metaBytes, float64(v.metaBytes))
		vopT = append(vopT, us(w.vopTime(v)))
		captured += float64(v.pages) * vm.PageSize
	}
	puts := (b.obj.Blocks - a.obj.Blocks) + int(b.obj.BlocksFreed-a.obj.BlocksFreed) + int(b.obj.DedupHits-a.obj.DedupHits)
	hits := b.obj.DedupHits - a.obj.DedupHits
	phys := float64(b.obj.BlockBytes-a.obj.BlockBytes) + float64(b.obj.MetaBytes-a.obj.MetaBytes)
	sent, ref := b.net.sent-a.net.sent, b.net.ref-a.net.ref
	return map[string]float64{
		"vop_mean_us": mean(vopT),

		"vm.cow_faults":       per(b.meter.cow - a.meter.cow),
		"vm.page_copies":      per(b.meter.copies - a.meter.copies),
		"vm.pte_ops":          per(b.meter.pte - a.meter.pte),
		"vm.page_ins":         per(b.meter.pageIns - a.meter.pageIns),
		"vm.zero_fills":       per(b.meter.zeroFills - a.meter.zeroFills),
		"vm.vlazy_copy_us":    mean(lazy),
		"kernel.meta_objects": mean(objects),
		"kernel.meta_bytes":   mean(metaBytes),
		"kernel.vmeta_us":     mean(meta),

		"core.vstop_us":         mean(stop),
		"core.vstop_max_us":     maxOf(stop),
		"core.vflush_us":        mean(flush),
		"core.fleet_dispatches": per(b.fleet.Dispatches - a.fleet.Dispatches),
		"core.budget_stalls":    per(b.fleet.BudgetStalls - a.fleet.BudgetStalls),

		"objstore.page_puts":   per(int64(puts)),
		"objstore.blocks_new":  per(int64(b.obj.Blocks - a.obj.Blocks)),
		"objstore.dedup_ratio": ratio(float64(hits), float64(puts)),
		"objstore.meta_bytes":  per(b.obj.MetaBytes - a.obj.MetaBytes),
		"objstore.pack_blocks": per(int64(b.obj.PackBlocks - a.obj.PackBlocks)),
		"objstore.vread_us":    mean(read),
		"objstore.space_amp":   ratio(phys, captured),

		"storage.writes":        per(b.dev.Writes - a.dev.Writes),
		"storage.bytes_written": per(b.dev.BytesWritten - a.dev.BytesWritten),
		"storage.reads":         per(b.dev.Reads - a.dev.Reads),
		"storage.bytes_read":    per(b.dev.BytesRead - a.dev.BytesRead),
		"storage.syncs":         per(b.dev.Syncs - a.dev.Syncs),
		"storage.vbusy_us":      us(b.dev.Busy-a.dev.Busy) / n,
		"storage.write_amp":     ratio(float64(b.dev.BytesWritten-a.dev.BytesWritten), captured),

		"netback.pages_sent":     per(sent),
		"netback.pages_ref":      per(ref),
		"netback.ref_ratio":      ratio(float64(ref), float64(sent+ref)),
		"netback.resends":        per(b.net.resends - a.net.resends),
		"netback.needs":          per(b.net.needs - a.net.needs),
		"netback.bytes_received": per(b.net.received - a.net.received),
	}
}
