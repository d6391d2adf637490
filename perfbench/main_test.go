package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"aurora/internal/storage"
	"aurora/internal/vm"
)

// TestMain lets the test binary serve as the segment child process.
func TestMain(m *testing.M) {
	if segmentChild() {
		return
	}
	os.Exit(m.Run())
}

func shuffled(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestTailRule(t *testing.T) {
	if _, _, ok := tail(shuffled(10)); ok {
		t.Fatal("10 samples cannot have a tail with 10 beyond it")
	}
	if v, pct, ok := tail(shuffled(11)); !ok || v != 1 || pct != 100.0/11 {
		t.Fatalf("11 samples: got %v p%v ok=%v, want the minimum at p%v", v, pct, ok, 100.0/11)
	}
	if v, pct, ok := tail(shuffled(200)); !ok || v != 190 || pct != 95 {
		t.Fatalf("200 samples: got %v p%v, want 190 at p95 (ten beyond)", v, pct)
	}
	// A fixed percentile with enough samples beyond it is kept...
	if v, pct, beyond := tailAt(shuffled(200), 90); v != 180 || pct != 90 || beyond != 20 {
		t.Fatalf("p90 of 200: got %v p%v beyond %d", v, pct, beyond)
	}
	// ...and lowered to the rule's maximum when too few lie beyond.
	if v, pct, beyond := tailAt(shuffled(200), 99); v != 190 || pct != 95 || beyond != 10 {
		t.Fatalf("p99 of 200: got %v p%v beyond %d, want 190 at p95 with 10 beyond", v, pct, beyond)
	}
	if v, pct, _ := tailAt(shuffled(5), 90); v != 5 || pct != 100 {
		t.Fatalf("5 samples: got %v p%v, want the maximum", v, pct)
	}
	if m := median(shuffled(4)); m != 2.5 {
		t.Fatalf("median of 1..4 = %v", m)
	}
}

// fakeWorkload returns fixed virtual records so exactMetrics can be
// checked against hand-computed bases.
type fakeWorkload struct{ vs []vop }

func (f *fakeWorkload) setup(*tracer) error         { return nil }
func (f *fakeWorkload) op(*rec, int) error          { return nil }
func (f *fakeWorkload) drain(*rec) error            { return nil }
func (f *fakeWorkload) vops() []vop                 { return f.vs }
func (f *fakeWorkload) counters() counters          { return counters{} }
func (f *fakeWorkload) oracle() (int, error)        { return 0, nil }
func (f *fakeWorkload) teardown()                   {}
func (f *fakeWorkload) vopTime(v vop) time.Duration { return v.stop + v.flush }

func TestRatioBases(t *testing.T) {
	if ratio(1, 0) != 0 {
		t.Fatal("an empty base must give 0")
	}
	w := &fakeWorkload{vs: []vop{
		{stop: 100 * time.Microsecond, flush: 300 * time.Microsecond, pages: 6},
		{stop: 200 * time.Microsecond, flush: 400 * time.Microsecond, pages: 2},
	}}
	var a, b counters
	a.obj.Blocks, b.obj.Blocks = 100, 110 // 10 new blocks
	a.obj.DedupHits, b.obj.DedupHits = 5, 35
	a.obj.BlockBytes, b.obj.BlockBytes = 0, 3*vm.PageSize
	a.obj.MetaBytes, b.obj.MetaBytes = 0, vm.PageSize
	b.dev.BytesWritten = 16 * vm.PageSize
	b.net.sent, b.net.ref = 30, 10
	m := exactMetrics(w, a, b, 4)
	want := map[string]float64{
		"objstore.page_puts":   10,   // (10 new + 30 hits) / 4 ops
		"objstore.blocks_new":  2.5,  // 10 / 4
		"objstore.dedup_ratio": 0.75, // 30 hits / 40 puts
		"objstore.space_amp":   0.5,  // (3 blocks + 1 block of metadata) / 8 pages captured
		"storage.write_amp":    2,    // 16 pages written / 8 captured
		"netback.ref_ratio":    0.25, // 10 ref / (30 sent + 10 ref)
		"netback.pages_sent":   7.5,
		"vop_mean_us":          500, // mean of (100+300, 200+400)
		"core.vstop_us":        150,
		"core.vstop_max_us":    200,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestHeapPeakSampling(t *testing.T) {
	h := startHeapSampler(time.Millisecond)
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	time.Sleep(20 * time.Millisecond)
	runtime.KeepAlive(buf)
	buf = nil
	runtime.GC()
	time.Sleep(5 * time.Millisecond)
	if peak := h.Stop(); peak < 64<<20 {
		t.Fatalf("peak %d bytes missed a live 64 MiB allocation", peak)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.checkpoint", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "storage.write", Start: 20, End: 30},
		// Overlaps the previous child and outlives its parent: only
		// [25, 50) of it is covered time of the checkpoint.
		{ID: 3, Parent: 1, Name: "storage.write", Start: 25, End: 60},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 60, "core": 10, "storage": 45}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self = %v, want %v", k, got[k], v)
		}
	}
}

// TestLeafAttribution checks which span a leaf belongs to: a leaf on
// the load goroutine is part of the span open there; a background leaf
// is part of it only while it waits (Sync), and otherwise is detached,
// so a flush that overlaps the next operation is not taken out of that
// operation's self time.
func TestLeafAttribution(t *testing.T) {
	tr := newTracer(true)
	background := func(name string) {
		done := make(chan struct{})
		go func() {
			tr.leaf(name, time.Now())
			close(done)
		}()
		<-done
	}
	tr.setOp(0)
	op := tr.begin("bench.op")
	ck := tr.begin("core.checkpoint")
	tr.leaf("storage.read", time.Now())
	background("storage.write")
	tr.end(ck)
	sy := tr.beginWait("core.sync")
	background("netback.link_write")
	tr.end(sy)
	background("storage.sync")
	tr.end(op)

	want := map[string]struct {
		parent   int32
		op       int64
		detached bool
	}{
		"storage.read":       {ck, 0, false},
		"storage.write":      {-1, -1, true},
		"netback.link_write": {sy, 0, false},
		"storage.sync":       {-1, -1, true},
	}
	for _, s := range tr.snapshot() {
		w, ok := want[s.Name]
		if !ok {
			continue
		}
		if s.Parent != w.parent || s.Op != w.op || s.Detached != w.detached {
			t.Errorf("%s: parent %d op %d detached %v, want %d %d %v",
				s.Name, s.Parent, s.Op, s.Detached, w.parent, w.op, w.detached)
		}
	}

	// A detached write overlapping a checkpoint leaves its self time whole.
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.checkpoint", Start: 10, End: 50},
		{ID: 2, Parent: -1, Op: -1, Detached: true, Name: "storage.write", Start: 20, End: 80},
	}
	got := selfTimes(spans)
	for k, v := range map[string]time.Duration{"bench": 60, "core": 40, "storage": 60} {
		if got[k] != v {
			t.Errorf("%s self = %v, want %v", k, got[k], v)
		}
	}
}

// TestTracedDeviceForwards checks that the device wrapper answers the
// optional capabilities exactly as the wrapped device does, traces its
// redirected views, and records one span per I/O.
func TestTracedDeviceForwards(t *testing.T) {
	clock := storage.NewClock()
	tr := newTracer(true)
	mem := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)
	arr := storage.NewOptaneArray(2, clock) // no residency, no TRIM
	for _, inner := range []storage.Device{mem, arr} {
		d := &tracedDevice{inner: inner, tr: tr}
		page := make([]byte, vm.PageSize)
		page[0] = 7
		if _, err := d.WriteAt(page, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := storage.ResidentBytes(d), storage.ResidentBytes(inner); got != want {
			t.Errorf("%T: resident %d through the wrapper, %d direct", inner, got, want)
		}
		storage.DiscardRange(d, 0, vm.PageSize)
		if got, want := storage.ResidentBytes(d), storage.ResidentBytes(inner); got != want {
			t.Errorf("%T: resident %d after TRIM through the wrapper, %d direct", inner, got, want)
		}
		lane := storage.NewClock()
		view, ok := storage.Redirect(d, lane).(*tracedDevice)
		if !ok {
			t.Fatalf("%T: redirected view is not traced", inner)
		}
		if _, err := view.ReadAt(page, 0); err != nil {
			t.Fatal(err)
		}
		if d.Stats() != inner.Stats() {
			t.Errorf("%T: stats differ through the wrapper", inner)
		}
	}
	if got := spanTotals(tr.snapshot()); len(tr.snapshot()) != 4 || got["storage.write"] == 0 || got["storage.read"] == 0 {
		t.Errorf("want 2 write and 2 read spans, got %d spans %v", len(tr.snapshot()), got)
	}
}

// TestWorkloadsSmoke runs every workload at smoke size in traced mode:
// untraced and traced segments on the same seeds with the oracle on.
// It fails if any operation or oracle fails, or if the forwarding
// device and link wrappers changed a virtual metric or counter that
// the untraced program reproduces.
func TestWorkloadsSmoke(t *testing.T) {
	wantSpan := map[string]string{
		"redis-incr":   "storage.write",
		"fleet-clones": "storage.write",
		"quorum-ship":  "netback.link_write",
		"faas-restore": "storage.read",
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res := run(sp, options{seed: 3, scale: 16, budget: time.Millisecond, trace: true})
			for _, e := range res.errs {
				t.Error(e)
			}
			for _, m := range res.mismatch {
				t.Error("trace changed an exact metric:", m)
			}
			if len(res.plain) < 2 || len(res.traced) < 2 {
				t.Fatalf("ran %d untraced and %d traced segments, want 2 pairs", len(res.plain), len(res.traced))
			}
			for _, seg := range res.plain {
				if seg.Ops == 0 || (sp.name != "faas-restore" && seg.Checked == 0) {
					t.Errorf("segment ran %d ops and checked %d restores", seg.Ops, seg.Checked)
				}
			}
			e2e, _ := res.endToEnd()
			for _, d := range endToEndDefs {
				if e2e[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, e2e[d.name].Value)
				}
			}
			layers := res.perLayer()
			for _, d := range perLayerDefs {
				if _, ok := layers[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if res.totals[wantSpan[sp.name]] == 0 {
				t.Errorf("no %s spans recorded by the wrappers", wantSpan[sp.name])
			}
		})
	}
}

// TestCatalogue checks BENCHMARK.json and CATALOGUE.json against the
// metrics and workloads the program prints.
func TestCatalogue(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(specs))
	}
	for i, w := range bench.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, defs []metricDef, names, units, better []string) {
		if len(names) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || better[i] != d.better {
				t.Errorf("%s %d: json %s/%s/%s, program %s/%s/%s", kind, i, names[i], units[i], better[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range bench.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("end_to_end", endToEndDefs, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range bench.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", perLayerDefs, n, u, b)

	var cat struct {
		Metrics []struct {
			Name, Unit, Better, Layer string
			Moves                     string `json:"moves"`
		} `json:"metrics"`
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	readJSON(t, "CATALOGUE.json", &cat)
	seen := map[string]bool{}
	for _, m := range cat.Metrics {
		seen[m.Name] = true
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("catalogue entry %s lacks a layer or a prediction", m.Name)
		}
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("catalogue %s unit %s, program %s", m.Name, m.Unit, u)
		}
	}
	for _, d := range append(endToEndDefs, perLayerDefs...) {
		if !seen[d.name] {
			t.Errorf("catalogue lacks %s", d.name)
		}
	}
	for i, w := range cat.Workloads {
		if i >= len(specs) || w.Name != specs[i].name || !strings.Contains(w.Why, " ") {
			t.Errorf("catalogue workload %d (%s) does not match the program", i, w.Name)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
