package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
)

// This file is the store-kill placement chaos harness: a fleet of N
// stores (each a full topology Node) is populated with hundreds of
// counter groups through core.Placer under failure-domain
// anti-affinity, driven with open-loop checkpoint load over
// fault-injecting links and store devices, and then one store's device
// dies permanently. The placer's probe ladder must declare the death,
// evacuate every resident lineage through the bounded-concurrency
// queue (standby promotion on the best surviving replica, typed
// ErrEvacuating while queued), and re-replicate to full strength.
// Invariants asserted after the heal, per resident lineage: durable
// never regressed, the workload state is bit-identical on the new
// primary (counter + patterned pages), a scratch-machine restore from
// the new primary's store is bit-identical, exactly one store claims
// the primary role at the max generation, and no placement violates
// anti-affinity. An optional drain leg then decommissions one
// survivor end to end.

// placePages is the patterned working set per group (beyond the
// counter page). Smaller than the single-group chaos harness's — the
// placement gate multiplies it by hundreds of groups.
const placePages = 2

// PlacementChaosConfig parameterizes one placement chaos run. Zero
// values pick defaults.
type PlacementChaosConfig struct {
	Seed int64

	// Stores is the fleet size (default 4); failure domains are
	// assigned round-robin over max(2, Stores/2) domains, so a domain
	// holds more than one store once the fleet is big enough.
	Stores int
	// Groups is the number of placed lineages (default 48; the
	// acceptance gate runs 256 via AURORA_PLACE_GROUPS).
	Groups int
	// Replicas is the copy count per lineage, primary included
	// (default 2).
	Replicas int

	// PreEpochs checkpoints run per group before the kill (default 3);
	// PostEpochs after the heal (default 2).
	PreEpochs  int
	PostEpochs int
	// StepsPerEpoch is scheduler quanta per group per epoch (default 2).
	StepsPerEpoch int

	// EvacConcurrency bounds evacuations per placer poll (default 8).
	EvacConcurrency int

	// Per-frame link fault probabilities on every replication wire.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64
	// Store fault probabilities (every store's device).
	StoreWriteErr float64
	StoreReadErr  float64

	// SkipKill skips the store-kill leg (placement + load only).
	SkipKill bool
	// Drain decommissions one surviving store after the heal
	// (default on via withDefaults; set false after calling it to
	// disable).
	Drain bool
}

func (c PlacementChaosConfig) withDefaults() PlacementChaosConfig {
	if c.Stores == 0 {
		c.Stores = 4
	}
	if c.Groups == 0 {
		c.Groups = 48
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.PreEpochs == 0 {
		c.PreEpochs = 3
	}
	if c.PostEpochs == 0 {
		c.PostEpochs = 2
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	if c.EvacConcurrency == 0 {
		c.EvacConcurrency = 8
	}
	return c
}

// PlacementChaosReport is the outcome of one placement chaos run.
type PlacementChaosReport struct {
	Seed           int64
	Stores, Groups int

	Placed     int // lineages placed
	Victim     string
	Residents  int // primaries resident on the victim at kill time
	Evacuated  int // lineages re-homed by standby promotion
	Repaired   int // placements whose replica set was rebuilt
	Polls      int // placer poll rounds to drain the storm
	Evacuating int // ErrEvacuating lookups observed mid-storm

	// Evacuation TTR percentiles (virtual, per-promotion on the target
	// machine's clock).
	EvacTTRs                        []time.Duration
	EvacTTRp50, EvacTTRp99, EvacMax time.Duration

	RestoresVerified int // bit-identical verifications (live + scratch)
	Degraded         int // placements below full replication after heal
	Violations       int // anti-affinity violations after heal (must be 0)

	Drained        int // lineages migrated off by the drain leg
	ExemptRestores int // supervisor recoveries exempted as evacuation-initiated

	FinalDurable uint64 // max durable epoch across surviving lineages
	LinkDropped  int64
	LinkInjected int64
}

// fleet is the state the placement and autoscale engines share: store
// nodes behind one placer, and the per-lineage record the oracle checks
// them against.
type fleet struct {
	engine string // "placement" or "autoscale", for error messages
	seed   int64
	steps  int // scheduler quanta per resident group per workload round

	tp     *Topology
	dir    *netback.Directory
	placer *core.Placer
	nodes  []*core.StoreNode // every store ever built, admitted or not
	bench  map[*core.StoreNode]*Node

	counterAt   map[uint64]map[uint64]uint64 // lineage -> epoch -> counter
	patternSeed map[uint64]int64             // lineage -> pattern seed
	durable     durableLedger
	verified    int // bit-identical verifications (live + scratch)
	violations  int // invariant failures (must stay 0)
}

// newFleet builds an empty fleet whose wires inject the given link
// faults.
func newFleet(engine string, seed int64, steps int, faults netback.LinkFaultConfig, pc core.PlacerConfig) *fleet {
	dirFaults := faults
	dirFaults.Seed = seed
	dir := netback.NewDirectory(dirFaults)
	return &fleet{
		engine:      engine,
		seed:        seed,
		steps:       steps,
		tp:          NewTopology(faults),
		dir:         dir,
		placer:      core.NewPlacer(dir, pc),
		bench:       make(map[*core.StoreNode]*Node),
		counterAt:   make(map[uint64]map[uint64]uint64),
		patternSeed: make(map[uint64]int64),
		durable:     make(durableLedger),
	}
}

func (f *fleet) errorf(format string, args ...any) error {
	return fmt.Errorf("bench: %s seed %d: "+format, append([]any{f.engine, f.seed}, args...)...)
}

// store builds store i (a full topology node) in the given failure
// domain; the caller admits it.
func (f *fleet) store(i int, domain string, writeErr, readErr float64) *core.StoreNode {
	bn := f.tp.Node(fmt.Sprintf("store%d", i), f.seed*1000003+int64(i)*7919, writeErr, readErr)
	sn := &core.StoreNode{
		Name:   bn.name,
		Domain: domain,
		O:      bn.o,
		SB:     bn.sb,
		Sup:    core.NewSupervisor(bn.o, core.SupervisorConfig{}),
	}
	f.nodes = append(f.nodes, sn)
	f.bench[sn] = bn
	return sn
}

// place lands lineage number i: the counter workload with placePages
// patterned pages under its own pattern seed.
func (f *fleet) place(i int) error {
	name := fmt.Sprintf("app%04d", i)
	pseed := f.seed + int64(i)
	pl, err := f.placer.Place(name, func(n *core.StoreNode) (*core.Group, error) {
		return spawnCounter(n.O, name, placePages, pseed)
	})
	if err != nil {
		return err
	}
	f.patternSeed[pl.Lineage] = pseed
	f.counterAt[pl.Lineage] = make(map[uint64]uint64)
	return nil
}

// live reports whether the placement is routable (not evacuating, not
// lost) and returns it.
func (f *fleet) live(lineage uint64) (*core.Placement, bool) {
	pl, err := f.placer.Lookup(lineage)
	if err != nil {
		return nil, false
	}
	return pl, true
}

// residents counts the routable primaries each store holds.
func (f *fleet) residents() map[*core.StoreNode]int {
	resident := make(map[*core.StoreNode]int)
	for _, pl := range f.placer.Placements() {
		if pl, ok := f.live(pl.Lineage); ok {
			resident[pl.Primary()]++
		}
	}
	return resident
}

// run drives one open-loop workload round: every active or draining
// store runs its resident groups.
func (f *fleet) run() error {
	for sn, count := range f.residents() {
		if st := sn.State(); st != core.StoreActive && st != core.StoreDraining {
			continue
		}
		if _, err := f.bench[sn].k.Run(count * f.steps); err != nil {
			return f.errorf("workload on %s: %w", sn.Name, err)
		}
	}
	return nil
}

// checkpoint checkpoints every routable lineage until admitted (a shed
// retries only the barrier), records the counter it captured, syncs it
// durable through the placer's wire-healing loop, and checks durable
// never regresses.
func (f *fleet) checkpoint() error {
	for _, pl := range f.placer.Placements() {
		pl, ok := f.live(pl.Lineage)
		if !ok {
			continue
		}
		g := pl.Group()
		c, err := readCounter(pl.Primary().O.K, g)
		if err != nil {
			return f.errorf("lineage %d: %w", pl.Lineage, err)
		}
		if err := admitCheckpoint(pl.Primary().O, g, nil); err != nil {
			return f.errorf("checkpointing lineage %d: %w", pl.Lineage, err)
		}
		f.counterAt[pl.Lineage][g.Epoch()] = c
		if err := f.placer.SyncDurable(pl.Lineage); err != nil {
			return f.errorf("%w", err)
		}
		if err := f.durable.observe(pl.Lineage, g.Durable()); err != nil {
			return f.errorf("%w", err)
		}
	}
	return nil
}

// verifyLineage checks the lineage bit-identical: the live counter and
// patterned pages on the current primary match the last checkpointed
// state, and so does a scratch-machine restore from the primary's store.
func (f *fleet) verifyLineage(pl *core.Placement, where string) error {
	g := pl.Group()
	want, ok := f.counterAt[pl.Lineage][g.Durable()]
	if !ok {
		// The durable frontier includes placer-internal seed
		// checkpoints; fall back to the newest engine-observed epoch at
		// or below it.
		var best uint64
		found := false
		for ep, c := range f.counterAt[pl.Lineage] {
			if ep <= g.Durable() && ep >= best {
				best, want, found = ep, c, true
			}
		}
		if !found {
			return f.errorf("%s: no recorded counter for lineage %d ≤ epoch %d", where, pl.Lineage, g.Durable())
		}
	}
	pseed := f.patternSeed[pl.Lineage]
	if err := verifyCounter(pl.Primary().O.K, g, want, placePages, pseed); err != nil {
		return f.errorf("%s: lineage %d: %w", where, pl.Lineage, err)
	}
	f.verified++

	// Scratch restore from the new primary's store: the image chain
	// the promotion backfilled must be independently restorable.
	img, readTime, err := loadEpoch(pl.Primary().SB, g.ID, g.Durable())
	if err != nil {
		return f.errorf("%s: lineage %d: %w", where, pl.Lineage, err)
	}
	m, ng, err := scratchRestore(img, readTime)
	if err != nil {
		return f.errorf("%s: lineage %d: %w", where, pl.Lineage, err)
	}
	if err := verifyCounter(m.k, ng, want, placePages, pseed); err != nil {
		return f.errorf("%s: scratch restore of lineage %d: %w", where, pl.Lineage, err)
	}
	f.verified++
	return nil
}

// checkInvariants asserts zero anti-affinity violations and the
// exactly-one-primary-at-max-gen fencing invariant for every lineage,
// across every store in the fleet (dead ones included — their stale
// claims must rank strictly below the promoted generation).
func (f *fleet) checkInvariants(where string) error {
	if v := f.placer.AntiAffinityViolations(); len(v) != 0 {
		f.violations += len(v)
		return f.errorf("%s: anti-affinity violated: %v", where, v)
	}
	for _, pl := range f.placer.Placements() {
		if _, ok := f.live(pl.Lineage); !ok {
			continue
		}
		if err := solePrimary(pl.Lineage, f.tp.Nodes()...); err != nil {
			return f.errorf("%s: %w", where, err)
		}
	}
	return nil
}

// placeRun carries the placement harness state.
type placeRun struct {
	*fleet
	cfg PlacementChaosConfig
	rep *PlacementChaosReport
}

func domainOf(i, stores int) string {
	domains := stores / 2
	if domains < 2 {
		domains = stores
	}
	return fmt.Sprintf("rack%d", i%domains)
}

// PlacementChaosRun executes one placement chaos schedule.
func PlacementChaosRun(cfg PlacementChaosConfig) (*PlacementChaosReport, error) {
	cfg = cfg.withDefaults()
	// Fleet: N stores, each a full topology node, linked through the
	// production netback directory (the same code path the CLI wires).
	r := &placeRun{
		fleet: newFleet("placement", cfg.Seed, cfg.StepsPerEpoch, netback.LinkFaultConfig{
			Drop:    cfg.LinkDrop,
			Dup:     cfg.LinkDup,
			Reorder: cfg.LinkReorder,
			Corrupt: cfg.LinkCorrupt,
		}, core.PlacerConfig{
			Replicas:        cfg.Replicas,
			EvacConcurrency: cfg.EvacConcurrency,
			DownAfter:       5, // ride out injected probe faults on healthy stores
			Retries:         8, // faulted cells need migrator retry headroom
		}),
		cfg: cfg,
		rep: &PlacementChaosReport{Seed: cfg.Seed, Stores: cfg.Stores, Groups: cfg.Groups},
	}
	for i := 0; i < cfg.Stores; i++ {
		if err := r.placer.AddStore(r.store(i, domainOf(i, cfg.Stores), cfg.StoreWriteErr, cfg.StoreReadErr)); err != nil {
			return nil, err
		}
	}

	// Place the fleet's lineages.
	for i := 0; i < cfg.Groups; i++ {
		if err := r.place(i); err != nil {
			return nil, r.errorf("placing app%04d: %w", i, err)
		}
		r.rep.Placed++
	}
	if v := r.placer.AntiAffinityViolations(); len(v) != 0 {
		return nil, r.errorf("violations at placement time: %v", v)
	}

	// Open-loop checkpoint load before the kill.
	for e := 0; e < cfg.PreEpochs; e++ {
		if err := r.epoch(); err != nil {
			return nil, err
		}
	}

	if !cfg.SkipKill {
		if err := r.killLeg(); err != nil {
			return nil, err
		}
	}

	// Post-heal load: the fleet keeps running.
	for e := 0; e < cfg.PostEpochs; e++ {
		if err := r.epoch(); err != nil {
			return nil, err
		}
	}
	if err := r.checkInvariants("post-heal load"); err != nil {
		return nil, err
	}

	if cfg.Drain && !cfg.SkipKill {
		if err := r.drainLeg(); err != nil {
			return nil, err
		}
	}

	for _, pl := range r.placer.Placements() {
		if _, err := r.placer.Lookup(pl.Lineage); err != nil {
			continue
		}
		if d := pl.Group().Durable(); d > r.rep.FinalDurable {
			r.rep.FinalDurable = d
		}
	}
	for _, sn := range r.nodes {
		if sup := sn.Sup; sup != nil {
			for _, ev := range sup.Events() {
				if ev.Exempt {
					r.rep.ExemptRestores++
				}
			}
		}
	}
	r.rep.RestoresVerified, r.rep.Violations = r.verified, r.violations
	sort.Slice(r.rep.EvacTTRs, func(i, j int) bool { return r.rep.EvacTTRs[i] < r.rep.EvacTTRs[j] })
	if n := len(r.rep.EvacTTRs); n > 0 {
		r.rep.EvacTTRp50 = r.rep.EvacTTRs[n/2]
		r.rep.EvacTTRp99 = r.rep.EvacTTRs[(n*99)/100]
		r.rep.EvacMax = r.rep.EvacTTRs[n-1]
	}
	return r.rep, nil
}

// epoch drives one open-loop round: every active store runs its
// resident groups, then every routable lineage checkpoints and syncs
// durable.
func (r *placeRun) epoch() error {
	if err := r.run(); err != nil {
		return err
	}
	return r.checkpoint()
}

// killLeg kills the busiest store's device permanently and polls the
// placer until every resident is re-homed.
func (r *placeRun) killLeg() error {
	// Victim: the store holding the most primaries (maximal storm).
	resident := make(map[*core.StoreNode]int)
	for _, pl := range r.placer.Placements() {
		resident[pl.Primary()]++
	}
	var victim *core.StoreNode
	for _, sn := range r.nodes {
		if victim == nil || resident[sn] > resident[victim] ||
			(resident[sn] == resident[victim] && sn.Name < victim.Name) {
			victim = sn
		}
	}
	r.rep.Victim = victim.Name
	r.rep.Residents = resident[victim]
	residents := make([]uint64, 0, resident[victim])
	for _, pl := range r.placer.Placements() {
		if pl.Primary() == victim {
			residents = append(residents, pl.Lineage)
		}
	}

	r.bench[victim].fd.Down()

	// Poll until the storm drains. Each poll probes every store once
	// (DownAfter consecutive failures declare the death) and processes
	// a bounded slice of the evacuation/repair queues.
	maxPolls := 16 + (r.cfg.Groups/r.cfg.EvacConcurrency)*4
	for poll := 0; poll < maxPolls; poll++ {
		evs := r.placer.Poll()
		r.rep.Polls++
		for _, ev := range evs {
			switch ev.Kind {
			case "evacuated":
				r.rep.Evacuated++
				r.rep.EvacTTRs = append(r.rep.EvacTTRs, ev.TTR)
			case "repaired":
				r.rep.Repaired++
			}
			if ev.Kind == "evac-failed" && ev.Err != nil && !errors.Is(ev.Err, core.ErrNoFeasiblePlacement) {
				return r.errorf("evacuating lineage %d: %w", ev.Lineage, ev.Err)
			}
		}
		evac, repair := r.placer.QueueDepths()
		if evac > 0 {
			// Mid-storm: queued lineages must surface the typed error.
			for _, lin := range residents {
				if _, err := r.placer.Lookup(lin); errors.Is(err, core.ErrEvacuating) {
					r.rep.Evacuating++
					break
				}
			}
		}
		if victim.State() == core.StoreDown && evac == 0 && repair == 0 {
			break
		}
	}
	if evac, repair := r.placer.QueueDepths(); evac != 0 || repair != 0 {
		return r.errorf("storm did not drain (evac %d, repair %d after %d polls)",
			evac, repair, r.rep.Polls)
	}

	// Every resident must be re-homed and bit-identical.
	for _, lin := range residents {
		pl, ok := r.live(lin)
		if !ok {
			return r.errorf("lineage %d not routable after heal", lin)
		}
		if pl.Primary() == victim {
			return r.errorf("lineage %d still resident on dead %s", lin, victim.Name)
		}
		if err := r.verifyLineage(pl, "post-evacuation"); err != nil {
			return err
		}
		if len(pl.Replicas()) < r.cfg.Replicas-1 {
			r.rep.Degraded++
		}
	}
	return r.checkInvariants("post-evacuation")
}

// drainLeg decommissions the active store with the fewest residents:
// every resident lineage live-migrates off, replica roles re-home, the
// store fences, and the moved lineages stay bit-identical.
func (r *placeRun) drainLeg() error {
	resident := r.residents()
	// Drain a store outside the dead victim's failure domain: with the
	// victim's domain already short a store, draining inside it can
	// leave lineages there with no anti-affine migration target.
	var victimDomain string
	for _, sn := range r.nodes {
		if sn.Name == r.rep.Victim {
			victimDomain = sn.Domain
		}
	}
	var target *core.StoreNode
	for _, sn := range r.nodes {
		if sn.State() != core.StoreActive || sn.Domain == victimDomain {
			continue
		}
		if target == nil || resident[sn] < resident[target] ||
			(resident[sn] == resident[target] && sn.Name < target.Name) {
			target = sn
		}
	}
	if target == nil {
		return nil
	}
	moved := make([]uint64, 0, resident[target])
	for _, pl := range r.placer.Placements() {
		if _, ok := r.live(pl.Lineage); ok && pl.Primary() == target {
			moved = append(moved, pl.Lineage)
		}
	}
	evs, err := r.placer.Drain(target)
	if err != nil {
		return r.errorf("draining %s: %w", target.Name, err)
	}
	for _, ev := range evs {
		if ev.Kind == "migrated" {
			r.rep.Drained++
		}
	}
	if target.State() != core.StoreFenced {
		return r.errorf("%s state %s after drain, want fenced",
			target.Name, target.State())
	}
	for _, lin := range moved {
		pl, ok := r.live(lin)
		if !ok {
			return r.errorf("lineage %d lost by drain", lin)
		}
		if pl.Primary() == target {
			return r.errorf("lineage %d still on drained %s", lin, target.Name)
		}
		if err := r.verifyLineage(pl, "post-drain"); err != nil {
			return err
		}
	}
	return r.checkInvariants("post-drain")
}

// --- Sweep -----------------------------------------------------------

// PlacementPoint is one cell of the placement matrix.
type PlacementPoint struct {
	Stores       int     `json:"stores"`
	LinkFaultPct float64 `json:"link_fault_pct"`
	Groups       int     `json:"groups"`
	Residents    int     `json:"residents_on_victim"`
	Evacuated    int     `json:"evacuated"`
	Repaired     int     `json:"repaired"`
	Degraded     int     `json:"degraded"`
	Polls        int     `json:"polls"`
	Verified     int     `json:"restores_verified"`
	Drained      int     `json:"drained"`
	EvacTTRp50us float64 `json:"evac_ttr_p50_us"`
	EvacTTRp99us float64 `json:"evac_ttr_p99_us"`
	EvacTTRMaxus float64 `json:"evac_ttr_max_us"`
}

// PlacementSweep runs the placement chaos matrix: fleet size × link
// fault rate (store fault rates ride along at rate/5, like the
// migration sweep), with a store kill and a drain in every cell.
func PlacementSweep(groups int, stores []int, rates []float64, seed int64) ([]PlacementPoint, error) {
	var out []PlacementPoint
	for _, n := range stores {
		for _, rate := range rates {
			cfg := PlacementChaosConfig{
				Seed:          seed,
				Stores:        n,
				Groups:        groups,
				Drain:         n > 2, // a 2-store fleet has nowhere to drain to
				LinkDrop:      rate,
				LinkDup:       rate / 2,
				LinkCorrupt:   rate / 2,
				StoreWriteErr: rate / 5,
				StoreReadErr:  rate / 5,
			}
			rep, err := PlacementChaosRun(cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: placement sweep stores=%d rate=%g: %w", n, rate, err)
			}
			out = append(out, PlacementPoint{
				Stores:       n,
				LinkFaultPct: rate * 100,
				Groups:       rep.Groups,
				Residents:    rep.Residents,
				Evacuated:    rep.Evacuated,
				Repaired:     rep.Repaired,
				Degraded:     rep.Degraded,
				Polls:        rep.Polls,
				Verified:     rep.RestoresVerified,
				Drained:      rep.Drained,
				EvacTTRp50us: float64(rep.EvacTTRp50.Microseconds()),
				EvacTTRp99us: float64(rep.EvacTTRp99.Microseconds()),
				EvacTTRMaxus: float64(rep.EvacMax.Microseconds()),
			})
		}
	}
	return out, nil
}
