package main

// metricDef is one catalogued metric. exact marks metrics taken from
// the exact window (functions of the seed); the others are wall-clock.
// Per-layer metrics are per-operation means (units "…/op"), except the
// few that count or peak over a whole run.
type metricDef struct {
	name   string
	unit   string
	better string
	exact  bool
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", false},
	{"ops_per_s", "1/s", "higher", false},
	{"op_p50_us", "us", "lower", false},
	{"op_tail_us", "us", "lower", false},
	{"heap_peak_mb", "MB", "lower", false},
	{"vop_mean_us", "us", "lower", true},
}

var perLayerDefs = []metricDef{
	{"vm.write_us", "us/op", "lower", false},
	{"vm.cow_faults", "count/op", "lower", true},
	{"vm.page_copies", "count/op", "lower", true},
	{"vm.pte_ops", "count/op", "lower", true},
	{"vm.page_ins", "count/op", "lower", true},
	{"vm.zero_fills", "count/op", "lower", true},
	{"vm.vlazy_copy_us", "us/op", "lower", true},
	{"vm.self_us", "us/op", "lower", false},

	{"kernel.step_us", "us/op", "lower", false},
	{"kernel.exit_us", "us/op", "lower", false},
	{"kernel.meta_objects", "count/op", "lower", true},
	{"kernel.meta_bytes", "bytes/op", "lower", true},
	{"kernel.vmeta_us", "us/op", "lower", true},
	{"kernel.self_us", "us/op", "lower", false},

	{"core.checkpoint_us", "us/op", "lower", false},
	{"core.sync_us", "us/op", "lower", false},
	{"core.restore_us", "us/op", "lower", false},
	{"core.unpersist_us", "us/op", "lower", false},
	{"core.queue_depth_max", "count", "lower", false},
	{"core.fleet_dispatches", "count/op", "lower", true},
	{"core.budget_stalls", "count/op", "lower", true},
	{"core.fleet_mem_peak_bytes", "bytes", "lower", false},
	{"core.sheds", "count", "lower", false},
	{"core.vstop_us", "us/op", "lower", true},
	{"core.vstop_max_us", "us/op", "lower", true},
	{"core.vflush_us", "us/op", "lower", true},
	{"core.self_us", "us/op", "lower", false},

	{"objstore.load_us", "us/op", "lower", false},
	{"objstore.page_puts", "count/op", "lower", true},
	{"objstore.blocks_new", "count/op", "lower", true},
	{"objstore.dedup_ratio", "ratio", "higher", true},
	{"objstore.meta_bytes", "bytes/op", "lower", true},
	{"objstore.pack_blocks", "count/op", "lower", true},
	{"objstore.space_amp", "ratio", "lower", true},
	{"objstore.vread_us", "us/op", "lower", true},
	{"objstore.self_us", "us/op", "lower", false},

	{"storage.writes", "count/op", "lower", true},
	{"storage.bytes_written", "bytes/op", "lower", true},
	{"storage.reads", "count/op", "lower", true},
	{"storage.bytes_read", "bytes/op", "lower", true},
	{"storage.syncs", "count/op", "lower", true},
	{"storage.vbusy_us", "us/op", "lower", true},
	{"storage.write_amp", "ratio", "lower", true},
	{"storage.write_us", "us/op", "lower", false},
	{"storage.read_us", "us/op", "lower", false},
	{"storage.self_us", "us/op", "lower", false},

	{"netback.pages_sent", "count/op", "lower", true},
	{"netback.pages_ref", "count/op", "higher", true},
	{"netback.ref_ratio", "ratio", "higher", true},
	{"netback.resends", "count/op", "lower", true},
	{"netback.needs", "count/op", "lower", true},
	{"netback.bytes_received", "bytes/op", "lower", true},
	{"netback.link_write_us", "us/op", "lower", false},
	{"netback.self_us", "us/op", "lower", false},

	{"go.alloc_bytes_per_op", "bytes/op", "lower", false},
	{"go.mallocs_per_op", "count/op", "lower", false},
	{"go.gc_cycles", "count/op", "lower", false},
	{"go.gc_pause_us", "us/op", "lower", false},

	{"bench.self_us", "us/op", "lower", false},
	{"trace.overhead_frac", "ratio", "lower", false},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return "count"
}

// varies lists, per workload, the exact-window metrics the determinism
// self-check (--selfcheck) found NOT to repeat exactly on one seed
// across repeated runs and GOMAXPROCS settings. They are reported but
// left out of the traced run's reproduction check. Every other exact
// metric repeated bit for bit on seeds 1–8.
var varies = map[string][]string{
	// The shard workers' interleaving decides when the global memory
	// budget stalls an Enqueue, how many jobs are dispatched (seen only
	// under the race detector's slower timing), the order member devices
	// see writes in (and so device busy time and the lanes' flush
	// times), and whether two workers race to put the same new block
	// (one extra write).
	"fleet-clones": {"core.budget_stalls", "core.fleet_dispatches", "core.vflush_us",
		"storage.vbusy_us", "storage.writes", "storage.bytes_written", "storage.write_amp"},
	// Device busy time (the busiest array member's) differs between
	// runs of one seed; the cause is not yet traced.
	"faas-restore": {"storage.vbusy_us"},
}

// exactKeys are the metrics a traced segment must reproduce exactly.
func exactKeys(workload string) []string {
	skip := make(map[string]bool)
	for _, k := range varies[workload] {
		skip[k] = true
	}
	var out []string
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.exact && !skip[d.name] {
				out = append(out, d.name)
			}
		}
	}
	return out
}
