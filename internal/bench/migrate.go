package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
)

// This file is the live-migration chaos harness: a running counter
// workload is migrated across a chain of machines (A→B→C…) over a
// fault-injecting link while its source and target stores inject
// storage faults, with a scripted partition opening mid-pre-copy and
// healing only after the migrator has burned retry attempts on it.
// After the planned hops it optionally runs the hot-standby leg: a
// perpetual pre-copy target promoted after an unplanned source crash,
// measuring TTR. Invariants checked at every observation point:
// durable never regresses across handovers, exactly one store claims
// the primary role at the max generation, the migrated state is
// bit-identical (counter + patterned pages, demand-paged through the
// lazy tail), a scratch-machine restore from the target store is
// bit-identical, and the fenced source verifiably refuses further
// checkpoints.

// MigrateChaosConfig parameterizes one migration chaos run. Zero
// values pick defaults.
type MigrateChaosConfig struct {
	Seed int64

	// PreEpochs checkpoints run on the source before migration starts
	// (default 8); PostEpochs run on each target after its handover
	// (default 6).
	PreEpochs  int
	PostEpochs int
	// Rounds is the pre-copy workload rounds per hop (default 4).
	Rounds int
	// Hops is the number of chained planned migrations (default 2).
	Hops int
	// StepsPerEpoch is scheduler quanta per workload round (default 2).
	StepsPerEpoch int

	// Per-frame link fault probabilities on every migration link.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64

	// Store fault probabilities (every machine's store device).
	StoreWriteErr float64
	StoreReadErr  float64

	// Retries overrides the migrator's per-phase retry budget (0 keeps
	// the migrator default). Faulted cells need headroom: a flush
	// touches dozens of blocks, so per-write fault rates compound.
	Retries int

	// PartitionMid opens a symmetric partition on the migration link
	// mid-pre-copy and keeps it closed to the first reconnect attempts,
	// so the migrator's retry/backoff path is exercised (default on via
	// withDefaults; set PartitionMid=false after calling it to disable).
	PartitionMid bool

	// Standby appends the hot-standby leg: unplanned source crash,
	// standby promotion, TTR measured (default on).
	Standby bool
}

func (c MigrateChaosConfig) withDefaults() MigrateChaosConfig {
	if c.PreEpochs == 0 {
		c.PreEpochs = 8
	}
	if c.PostEpochs == 0 {
		c.PostEpochs = 6
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	return c
}

// MigrateChaosReport is the outcome of one migration chaos run.
type MigrateChaosReport struct {
	Seed int64
	Hops int

	// Blackouts are the per-hop planned blackout times (source stop +
	// target handover, virtual).
	Blackouts                             []time.Duration
	BlackoutP50, BlackoutP99, BlackoutMax time.Duration
	// SrcStops are the source-side stop segments of each blackout —
	// comparable to the single-barrier stop time of BENCH_pipeline.
	SrcStops []time.Duration
	// TTR is the unplanned standby promotion's time-to-recovery
	// (0 when Standby is off).
	TTR time.Duration

	Durable          uint64 // final durable epoch on the last machine
	Gen              uint64 // final primary generation
	Rounds           int    // pre-copy rounds summed over hops
	Backfilled       int    // epochs drained into target stores
	Retries          int    // migrator retry attempts across all phases
	FencedRejects    int    // checkpoints refused on fenced sources
	SupervisorSkips  int    // fenced zombies the supervisor refused to restore
	RestoresVerified int    // bit-identical verifications performed
	LinkDropped      int64  // frames dropped by the fault links
	LinkInjected     int64  // frames duplicated/corrupted by the fault links
	FinalCounter     uint64 // workload counter at exit
}

// migRun carries the harness state across hops.
type migRun struct {
	cfg MigrateChaosConfig
	rep *MigrateChaosReport
	tp  *Topology // every machine minted so far, in order

	cur     *Node // the machine currently running the workload
	g       *core.Group
	sup     *core.Supervisor
	lineage uint64

	lastCounter uint64
	durable     durableLedger // per-machine frontier: reset at each handover
}

// step runs one workload slice on the current machine and records the
// counter it will checkpoint at.
func (r *migRun) step() error {
	if _, err := r.cur.k.Run(r.cfg.StepsPerEpoch); err != nil {
		return err
	}
	c, err := readCounter(r.cur.k, r.g)
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d: %w", r.cfg.Seed, err)
	}
	r.lastCounter = c
	return nil
}

// epoch is one workload slice + checkpoint + durable sync outside any
// migration.
func (r *migRun) epoch() error {
	if err := r.step(); err != nil {
		return err
	}
	if _, err := r.cur.o.Checkpoint(r.g, core.CheckpointOpts{}); err != nil {
		return err
	}
	if err := syncDurable(r.cur.o, r.g); err != nil {
		return fmt.Errorf("bench: migrate seed %d: %w", r.cfg.Seed, err)
	}
	return nil
}

// invariants asserts durable monotonicity and the exactly-one-primary
// fencing invariant across every store minted so far.
func (r *migRun) invariants(where string) error {
	if err := r.durable.observe(r.g.ID, r.g.Durable()); err != nil {
		return fmt.Errorf("bench: migrate seed %d %s: %w", r.cfg.Seed, where, err)
	}
	if err := solePrimary(r.lineage, r.tp.Nodes()...); err != nil {
		return fmt.Errorf("bench: migrate seed %d %s: %w", r.cfg.Seed, where, err)
	}
	return nil
}

// verifyState reads the workload state back from the group's live
// memory on machine m — demand-paging any cold tail — and checks it
// bit-identical to the last checkpointed state.
func (r *migRun) verifyState(m *Node, g *core.Group, where string) error {
	if err := verifyCounter(m.k, g, r.lastCounter, chaosPages, r.cfg.Seed); err != nil {
		return fmt.Errorf("bench: migrate seed %d %s: %w", r.cfg.Seed, where, err)
	}
	r.rep.RestoresVerified++
	return nil
}

// verifyFromStore restores (group, epoch) from sb onto a scratch
// machine and checks it bit-identical: the "restores from the target
// store" acceptance check.
func (r *migRun) verifyFromStore(sb *core.StoreBackend, group, epoch uint64, where string) error {
	img, readTime, err := loadEpoch(sb, group, epoch)
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d %s: %w", r.cfg.Seed, where, err)
	}
	m, ng, err := scratchRestore(img, readTime)
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d %s: %w", r.cfg.Seed, where, err)
	}
	return r.verifyState(m, ng, where+" scratch restore")
}

// expectFenced verifies the fenced source is rejected at both levels:
// the in-core group refuses the barrier with ErrStaleGeneration, and
// the source store — its fence raised through the handover — refuses a
// zombie's attempt to reclaim the primary role at its old generation.
// Together they pin the guarantee that a zombie source can never
// re-advance the migrated lineage's durable state.
func (r *migRun) expectFenced(m *Node, g *core.Group, oldGen uint64, where string) error {
	if _, err := m.o.Checkpoint(g, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		return fmt.Errorf("bench: migrate seed %d %s: fenced source checkpoint = %v, want ErrStaleGeneration",
			r.cfg.Seed, where, err)
	}
	if err := m.sb.Store().SetPrimary(r.lineage, oldGen); !errors.Is(err, core.ErrStaleGeneration) {
		return fmt.Errorf("bench: migrate seed %d %s: zombie primary re-claim at gen %d = %v, want ErrStaleGeneration",
			r.cfg.Seed, where, oldGen, err)
	}
	r.rep.FencedRejects++
	return nil
}

// leg is one move of the workload off the current machine: the target
// machine, the migration wire to it, and the migrator driving it.
type leg struct {
	src, dst *Node
	srcG     *core.Group
	ml       *Wire
	mig      *core.Migrator
}

// newLeg mints the target machine, strings and connects the migration
// wire to it, and builds the migrator.
func (r *migRun) newLeg(dstName string, dstSeed, linkSeed int64, migName string) (*leg, error) {
	cfg := r.cfg
	l := &leg{src: r.cur, srcG: r.g}
	l.dst = r.tp.Node(dstName, dstSeed, cfg.StoreWriteErr, cfg.StoreReadErr)
	l.ml = r.tp.Wire(linkSeed, l.src, l.dst)
	l.ml.rb.SetName("migrate-link")
	if err := l.ml.connect(r.g.ID); err != nil {
		return nil, err
	}
	l.mig = &core.Migrator{
		Src:      l.src.o,
		Dst:      l.dst.o,
		G:        l.srcG,
		Link:     l.ml.rb,
		Target:   l.ml.recv,
		SrcStore: l.src.sb,
		DstStore: l.dst.sb,
		Sup:      r.sup,
		Reconnect: func() error {
			return l.ml.reset(l.srcG.ID)
		},
		Cfg: core.MigratorConfig{
			MaxRounds: cfg.Rounds,
			Retries:   cfg.Retries,
			Lineage:   r.lineage,
			Name:      migName,
		},
	}
	return l, nil
}

// land moves the workload onto the leg's target as group g and checks
// the handover: invariants, the durable floor, the migrated state
// bit-identical live (demand-paged through the lazy tail: target store
// first, then source store/receiver peers with read-repair) and from a
// scratch restore of the target store alone, and a fenced source that
// refuses to re-advance. The workload then runs forward on the target.
func (r *migRun) land(l *leg, g *core.Group, floor uint64, where string) error {
	cfg := r.cfg
	r.cur = l.dst
	r.g = g
	r.durable = make(durableLedger)
	if err := r.invariants(where); err != nil {
		return err
	}
	if r.g.Durable() < floor {
		return fmt.Errorf("bench: migrate seed %d %s: target durable %d below handover floor %d",
			cfg.Seed, where, r.g.Durable(), floor)
	}
	if err := r.verifyState(l.dst, r.g, where+" lazy tail"); err != nil {
		return err
	}
	if err := r.verifyFromStore(l.dst.sb, l.srcG.ID, floor, where+" target store"); err != nil {
		return err
	}
	if err := r.expectFenced(l.src, l.srcG, l.srcG.Generation(), where+" fenced source"); err != nil {
		return err
	}
	l.ml.stop()
	r.rep.LinkDropped += l.ml.link.DroppedCount()
	r.rep.LinkInjected += l.ml.link.InjectedCount()

	for i := 0; i < cfg.PostEpochs; i++ {
		if err := r.epoch(); err != nil {
			return fmt.Errorf("bench: migrate seed %d %s post-epoch %d: %w", cfg.Seed, where, i, err)
		}
	}
	return r.invariants(where + " post")
}

// hop performs one planned live migration to a fresh machine and
// moves the workload there.
func (r *migRun) hop(idx int) error {
	cfg := r.cfg
	l, err := r.newLeg(fmt.Sprintf("m%d", idx+1), cfg.Seed*31+int64(idx+1)*977,
		cfg.Seed*1000003+int64(idx)*7919, fmt.Sprintf("migrated-%d", idx+1))
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d hop %d: connect: %w", cfg.Seed, idx, err)
	}
	round := 0
	workload := func() error {
		round++
		if cfg.PartitionMid && round == 1 {
			// Mid-pre-copy partition: stays closed through the first
			// reconnect attempt, so the migrator pays real retries.
			l.ml.partition(1)
		}
		return r.step()
	}
	rep, err := l.mig.Run(workload)
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d hop %d: %w", cfg.Seed, idx, err)
	}

	r.rep.Blackouts = append(r.rep.Blackouts, rep.Blackout)
	r.rep.SrcStops = append(r.rep.SrcStops, rep.SrcStop)
	r.rep.Rounds += rep.Rounds
	r.rep.Backfilled += rep.Backfilled
	r.rep.Retries += rep.Retries
	r.rep.Gen = rep.Gen

	r.sup = core.NewSupervisor(l.dst.o, core.SupervisorConfig{})
	r.sup.Watch(rep.Group)
	return r.land(l, rep.Group, rep.Floor, fmt.Sprintf("hop %d", idx))
}

// standbyLeg runs the hot-standby story: perpetual pre-copy to a
// standby machine, an unplanned source crash, a supervisor poll that
// must refuse the fenced zombie, and the promotion with TTR.
func (r *migRun) standbyLeg() error {
	cfg := r.cfg
	idx := cfg.Hops + 1
	l, err := r.newLeg(fmt.Sprintf("standby-m%d", idx), cfg.Seed*37+int64(idx)*1009,
		cfg.Seed*999983+int64(idx)*104729, "standby")
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d standby: connect: %w", cfg.Seed, err)
	}

	// Keep the standby warm: perpetual pre-copy on the checkpoint
	// cadence.
	for i := 0; i < cfg.Rounds; i++ {
		if err := l.mig.StandbyRound(r.step); err != nil {
			return fmt.Errorf("bench: migrate seed %d standby round %d: %w", cfg.Seed, i, err)
		}
	}

	// Unplanned death: every member crashes with an error. The source
	// supervisor would normally restore this — the promotion must beat
	// it by fencing, and a later poll must refuse the fenced zombie.
	for _, pid := range l.srcG.PIDs() {
		if p, err := l.src.k.Process(pid); err == nil {
			l.src.k.Exit(p, 2)
		}
	}

	rep, err := l.mig.PromoteStandby()
	if err != nil {
		return fmt.Errorf("bench: migrate seed %d standby promotion: %w", cfg.Seed, err)
	}
	r.rep.TTR = rep.TTR
	r.rep.Retries += rep.Retries
	r.rep.Backfilled += rep.Backfilled
	r.rep.Gen = rep.Gen

	// The promotion released the group from the source supervisor, so
	// a poll restores nothing. A restarted supervisor that re-watches
	// the fenced zombie (it cannot know better) must refuse to restore
	// it and report it fenced instead.
	r.sup.Watch(l.srcG)
	for _, ev := range r.sup.Poll() {
		if ev.NewGroup != 0 {
			return fmt.Errorf("bench: migrate seed %d standby: supervisor restored fenced zombie group %d as %d",
				cfg.Seed, ev.Group, ev.NewGroup)
		}
		if ev.Fenced {
			r.rep.SupervisorSkips++
		}
	}
	return r.land(l, rep.Group, rep.Floor, "standby")
}

// MigrateChaosRun executes one migration chaos schedule.
func MigrateChaosRun(cfg MigrateChaosConfig) (*MigrateChaosReport, error) {
	cfg = cfg.withDefaults()
	r := &migRun{
		cfg: cfg,
		rep: &MigrateChaosReport{Seed: cfg.Seed, Hops: cfg.Hops},
		tp: NewTopology(netback.LinkFaultConfig{
			Drop:    cfg.LinkDrop,
			Dup:     cfg.LinkDup,
			Reorder: cfg.LinkReorder,
			Corrupt: cfg.LinkCorrupt,
		}),
		durable: make(durableLedger),
	}
	m0 := r.tp.Node("m0", cfg.Seed, cfg.StoreWriteErr, cfg.StoreReadErr)
	r.cur = m0

	g, err := spawnCounter(m0.o, "migrate-app", chaosPages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.g = g
	r.lineage = g.ID
	m0.o.Attach(g, m0.sb)
	if err := m0.sb.Store().SetPrimary(r.lineage, g.Generation()); err != nil {
		return nil, err
	}
	if err := m0.sb.Store().Sync(); err != nil {
		return nil, err
	}
	r.sup = core.NewSupervisor(m0.o, core.SupervisorConfig{})
	r.sup.Watch(g)

	for i := 0; i < cfg.PreEpochs; i++ {
		if err := r.epoch(); err != nil {
			return nil, fmt.Errorf("bench: migrate seed %d pre-epoch %d: %w", cfg.Seed, i, err)
		}
	}
	if err := r.invariants("pre"); err != nil {
		return nil, err
	}

	for hop := 0; hop < cfg.Hops; hop++ {
		if err := r.hop(hop); err != nil {
			return nil, err
		}
	}
	if cfg.Standby {
		if err := r.standbyLeg(); err != nil {
			return nil, err
		}
	}

	r.rep.Durable = r.g.Durable()
	r.rep.FinalCounter = r.lastCounter
	sorted := append([]time.Duration(nil), r.rep.Blackouts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if n := len(sorted); n > 0 {
		r.rep.BlackoutP50 = sorted[n/2]
		r.rep.BlackoutP99 = sorted[(n*99)/100]
		r.rep.BlackoutMax = sorted[n-1]
	}
	return r.rep, nil
}

// MigratePoint is one row of BENCH_migrate.json.
type MigratePoint struct {
	Seed          int64   `json:"seed"`
	LinkFaultPct  float64 `json:"link_fault_pct"`
	StoreFaultPct float64 `json:"store_fault_pct"`
	Hops          int     `json:"hops"`
	BlackoutP50us float64 `json:"blackout_p50_us"`
	BlackoutP99us float64 `json:"blackout_p99_us"`
	BlackoutMaxus float64 `json:"blackout_max_us"`
	SrcStopMaxus  float64 `json:"src_stop_max_us"`
	TTRus         float64 `json:"ttr_us"`
	Retries       int     `json:"retries"`
	Backfilled    int     `json:"backfilled"`
	Durable       uint64  `json:"durable"`
}

// MigrateSweep runs the migration matrix: seeds × link/store fault
// rates, planned hops plus the unplanned standby promotion per cell.
func MigrateSweep(seeds []int64, rates []float64) ([]MigratePoint, error) {
	var points []MigratePoint
	for _, seed := range seeds {
		for _, rate := range rates {
			cfg := MigrateChaosConfig{
				Seed:          seed,
				LinkDrop:      rate,
				LinkDup:       rate / 2,
				LinkCorrupt:   rate / 2,
				StoreWriteErr: rate / 5,
				StoreReadErr:  rate / 5,
				PartitionMid:  true,
				Standby:       true,
			}
			if rate > 0 {
				cfg.Retries = 8
			}
			rep, err := MigrateChaosRun(cfg)
			if err != nil {
				return nil, err
			}
			var srcMax time.Duration
			for _, d := range rep.SrcStops {
				if d > srcMax {
					srcMax = d
				}
			}
			points = append(points, MigratePoint{
				Seed:          seed,
				LinkFaultPct:  rate * 100,
				StoreFaultPct: rate / 5 * 100,
				Hops:          rep.Hops,
				BlackoutP50us: float64(rep.BlackoutP50) / 1e3,
				BlackoutP99us: float64(rep.BlackoutP99) / 1e3,
				BlackoutMaxus: float64(rep.BlackoutMax) / 1e3,
				SrcStopMaxus:  float64(srcMax) / 1e3,
				TTRus:         float64(rep.TTR) / 1e3,
				Retries:       rep.Retries,
				Backfilled:    rep.Backfilled,
				Durable:       rep.Durable,
			})
		}
	}
	return points, nil
}
