package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file implements the multi-store placement control plane: the
// composition of PRs 2/5/6/8 into a fleet that heals itself. A Placer
// spreads persistence groups across N stores — each an independent
// machine with its own orchestrator, objstore, and replica links — by
// failure domain, load, and free space, with hard anti-affinity: a
// lineage's copies never share a failure domain, so no single rack or
// host death can take both.
//
// The placer is also the actor when the world changes:
//
//   - Store death (a probe ladder mirroring the PR 2 per-backend
//     health machine: transient failures degrade, DownAfter
//     consecutive failures declare the store down) triggers automatic
//     evacuation. Resident lineages are queued hot-first — a lineage
//     whose replica is fully caught up to the durable frontier promotes
//     in constant time — and drained through a bounded-concurrency
//     throttle (EvacConcurrency per Poll round, each landing on its
//     target machine's own detached clock). Lineages still queued
//     surface the typed ErrEvacuating.
//   - Space pressure (the PR 5 watermarks) triggers rebalance: the
//     heaviest resident lineage live-migrates (core.Migrator) toward
//     the emptiest compatible store before ENOSPC shedding begins.
//   - Planned decommission is first-class: Drain empties a store —
//     live-migrating primaries off, re-homing replica roles — then
//     fences it.
//
// Throughout, the PR 8 invariants hold: durable never regresses along
// a lineage, and exactly one store claims the primary role at the max
// generation (promotion mints above every witnessed fence; the old
// store's claim survives only at a strictly lower generation).

// Typed placement errors.
var (
	// ErrEvacuating marks a lineage queued for (or mid-) evacuation
	// after its primary store died: its placement is in flux.
	ErrEvacuating = errors.New("core: lineage is evacuating")
	// ErrDraining refuses an operation against a draining store
	// (CLI exit code 10).
	ErrDraining = errors.New("core: store is draining")
	// ErrNoFeasiblePlacement means no store satisfies the placement
	// constraints — anti-affinity, liveness, capacity (CLI exit 11).
	ErrNoFeasiblePlacement = errors.New("core: no feasible placement")
	// ErrUnknownLineage rejects a lookup of a lineage the placer never
	// placed (or has lost every copy of).
	ErrUnknownLineage = errors.New("core: unknown lineage")
)

// StoreState is one fleet store's lifecycle state.
type StoreState int

const (
	// StoreActive accepts placements and serves residents.
	StoreActive StoreState = iota
	// StoreDraining is being decommissioned: it serves residents but
	// refuses new placements while Drain moves its residents off.
	StoreDraining
	// StoreDown failed its probe ladder: residents are evacuated.
	StoreDown
	// StoreFenced is a drained store: empty, refusing everything.
	StoreFenced
)

func (s StoreState) String() string {
	switch s {
	case StoreActive:
		return "active"
	case StoreDraining:
		return "draining"
	case StoreDown:
		return "down"
	case StoreFenced:
		return "fenced"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StoreNode is one store of the fleet: an independent machine with its
// own orchestrator (clock, kernel, flush pipeline), its own object
// store, and optionally its own supervisor and space reclaimer.
type StoreNode struct {
	Name   string
	Domain string // failure domain (rack/host/AZ) for anti-affinity
	O      *Orchestrator
	SB     *StoreBackend
	Sup    *Supervisor // optional: crash recovery on this machine
	Rec    *Reclaimer  // optional: space pressure on this machine

	mu         sync.Mutex
	state      StoreState
	probeFails int
}

// State returns the node's lifecycle state.
func (n *StoreNode) State() StoreState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

func (n *StoreNode) setState(st StoreState) {
	n.mu.Lock()
	n.state = st
	n.mu.Unlock()
}

// usageFrac is the store's device occupancy fraction (0 when the
// device is unbounded).
func (n *StoreNode) usageFrac() float64 {
	_, _, frac := n.SB.Store().Usage()
	return frac
}

// PlacerLinks is the placer's view of the fleet's replication wiring —
// the store directory. netback.Directory implements it. The placer
// never touches wire details: it asks for a link from a primary node
// to a replica node for one stream and gets back the sender-side
// backend to attach and the receiver-side source promotions read.
type PlacerLinks interface {
	// Link establishes (or returns) the replication wire src→dst for
	// one stream, connected and serving.
	Link(src, dst *StoreNode, stream uint64) (Backend, ReplicaSource, error)
	// Reconnect re-establishes a dropped link connection (the
	// migrator's retry hook).
	Reconnect(src, dst *StoreNode, stream uint64) error
	// Drop tears the wire down for good.
	Drop(src, dst *StoreNode, stream uint64)
}

// PlacerConfig tunes the control plane. Zero values select defaults.
type PlacerConfig struct {
	// Replicas is the total copy count per lineage, primary included
	// (default 2: primary + one replica).
	Replicas int
	// EvacConcurrency bounds evacuations and replica repairs processed
	// per Poll round (default 4): the throttle that keeps a dead
	// store's hundreds of residents from re-homing in one indivisible
	// storm.
	EvacConcurrency int
	// DownAfter is the probe ladder: consecutive probe failures before
	// a store is declared down (default 3). Mirrors the PR 2 backend
	// health machine — one failure degrades, the ladder declares down.
	DownAfter int
	// HighWater is the occupancy fraction that triggers rebalance
	// (default 0.80, the PR 5 high watermark).
	HighWater float64
	// MigrateRounds bounds pre-copy rounds for drain/rebalance
	// migrations (default 2).
	MigrateRounds int
	// Retries is the migrator's per-phase retry budget for every
	// placement-driven move (0 keeps the migrator default). Chaos
	// runs with injected faults need the headroom.
	Retries int
	// PrimaryTarget is the resident-primary count a store is sized for.
	// When set, utilization is the max of device occupancy and
	// primaries/PrimaryTarget, so load pressure (not just space
	// pressure) drives pick ordering, rebalance, and the autoscaler's
	// signals. Zero keeps the pre-elasticity space-only behaviour.
	PrimaryTarget int
	// MoveCooldownTicks is the paced-rebalance ping-pong guard: a
	// lineage moved by RebalanceTick is ineligible to move again for
	// this many ticks (default 4).
	MoveCooldownTicks int
	// Opts is applied to every promotion/migration restore.
	Opts RestoreOpts
}

func (c PlacerConfig) replicas() int {
	if c.Replicas > 0 {
		return c.Replicas
	}
	return 2
}

func (c PlacerConfig) evacConcurrency() int {
	if c.EvacConcurrency > 0 {
		return c.EvacConcurrency
	}
	return 4
}

func (c PlacerConfig) downAfter() int {
	if c.DownAfter > 0 {
		return c.DownAfter
	}
	return 3
}

func (c PlacerConfig) highWater() float64 {
	if c.HighWater > 0 {
		return c.HighWater
	}
	return 0.80
}

func (c PlacerConfig) migrateRounds() int {
	if c.MigrateRounds > 0 {
		return c.MigrateRounds
	}
	return 2
}

func (c PlacerConfig) moveCooldownTicks() uint64 {
	if c.MoveCooldownTicks > 0 {
		return uint64(c.MoveCooldownTicks)
	}
	return 4
}

// Placement is one lineage's current home: the primary node running
// the group plus the replica nodes holding acked copies.
type Placement struct {
	Lineage uint64
	Name    string

	// All mutable state below is guarded by the owning placer's mu.
	primary    *StoreNode
	replicas   []*StoreNode
	sources    map[*StoreNode]ReplicaSource // receiver views, per replica
	wires      map[*StoreNode]Backend       // sender backends, per replica
	g          *Group
	evacuating bool
	lost       bool
}

// Group returns the live group (on the primary node's orchestrator).
func (pl *Placement) Group() *Group { return pl.g }

// Primary returns the node running the lineage.
func (pl *Placement) Primary() *StoreNode { return pl.primary }

// Replicas returns the replica nodes (primary excluded).
func (pl *Placement) Replicas() []*StoreNode {
	return append([]*StoreNode(nil), pl.replicas...)
}

// PlacerEvent records one control-plane action.
type PlacerEvent struct {
	Kind    string // "store-down", "evacuated", "repaired", "rebalanced", "drained", "undrained", "unplaced", "evac-failed", ...
	Store   string // the store acted on (down/drained)
	Lineage uint64
	From    string // previous home
	To      string // new home
	Gen     uint64 // generation minted by the move
	Floor   uint64 // the epoch the move resumed from
	TTR     time.Duration
	Err     error
}

// Placer is the fleet placement control plane.
type Placer struct {
	links PlacerLinks
	cfg   PlacerConfig

	mu         sync.Mutex
	nodes      []*StoreNode
	placements map[uint64]*Placement
	evacq      []uint64 // lineages whose primary died, awaiting promotion
	repairq    []uint64 // lineages that lost a replica, awaiting re-replication
	events     []PlacerEvent

	rebalTick uint64            // paced-rebalance tick counter
	lastMoved map[uint64]uint64 // lineage → tick of its last rebalance move
}

// NewPlacer creates a placer wiring replication through links.
func NewPlacer(links PlacerLinks, cfg PlacerConfig) *Placer {
	return &Placer{
		links:      links,
		cfg:        cfg,
		placements: make(map[uint64]*Placement),
		lastMoved:  make(map[uint64]uint64),
	}
}

// AddStore admits a store into the fleet and stamps its placement
// labels onto the objstore, so the store itself knows its identity.
func (p *Placer) AddStore(n *StoreNode) error {
	if n.Name == "" || n.Domain == "" {
		return fmt.Errorf("core: store needs a name and a failure domain")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ex := range p.nodes {
		if ex.Name == n.Name {
			return fmt.Errorf("core: store %q already admitted", n.Name)
		}
	}
	n.SB.Store().SetLabels(n.Name, n.Domain)
	// Group IDs are minted per orchestrator but compared fleet-wide
	// (lineage keys, PrimaryGen fencing) — give each store a disjoint
	// range so two stores never mint the same lineage.
	n.O.SetIDBase(uint64(len(p.nodes)+1) << 32)
	if n.Sup != nil {
		n.Sup.ExemptEvacuations(p.evacuationOf)
	}
	p.nodes = append(p.nodes, n)
	return nil
}

// Stores lists the fleet's nodes in admission order.
func (p *Placer) Stores() []*StoreNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*StoreNode(nil), p.nodes...)
}

// Node resolves a store by name.
func (p *Placer) Node(name string) (*StoreNode, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("core: no store named %q", name)
}

// Events returns every control-plane event recorded so far.
func (p *Placer) Events() []PlacerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PlacerEvent(nil), p.events...)
}

// lineagesLocked lists the lineages whose placement satisfies keep,
// ascending.
func (p *Placer) lineagesLocked(keep func(*Placement) bool) []uint64 {
	var out []uint64
	for lin, pl := range p.placements {
		if keep(pl) {
			out = append(out, lin)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Placements lists every placement, sorted by lineage.
func (p *Placer) Placements() []*Placement {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Placement, 0, len(p.placements))
	for _, pl := range p.placements {
		out = append(out, pl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lineage < out[j].Lineage })
	return out
}

// Lookup resolves a lineage's placement. A lineage mid-evacuation
// returns its (stale) placement together with ErrEvacuating; callers
// must not route work to it until a later Lookup succeeds.
func (p *Placer) Lookup(lineage uint64) (*Placement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.placements[lineage]
	if !ok {
		return nil, fmt.Errorf("core: lineage %d: %w", lineage, ErrUnknownLineage)
	}
	if pl.lost {
		return nil, fmt.Errorf("core: lineage %d lost every copy: %w", lineage, ErrUnknownLineage)
	}
	if pl.evacuating {
		return pl, fmt.Errorf("core: lineage %d: %w", lineage, ErrEvacuating)
	}
	return pl, nil
}

// evacuationOf is the supervisor exemption hook: a crash on a group
// whose lineage is mid-evacuation (or whose primary store is down or
// draining) is the store's fault, not the application's, so its
// recovery must not be charged against the crash-loop restart budget.
func (p *Placer) evacuationOf(g *Group) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pl := range p.placements {
		if pl.g != g {
			continue
		}
		if pl.evacuating {
			return true
		}
		if st := pl.primary.State(); st == StoreDown || st == StoreDraining {
			return true
		}
		return false
	}
	return false
}

// primaries counts placements whose primary is n. Caller holds p.mu.
func (p *Placer) primariesLocked(n *StoreNode) int {
	c := 0
	for _, pl := range p.placements {
		if pl.primary == n && !pl.lost {
			c++
		}
	}
	return c
}

// utilLocked scores one store's composite utilization: device
// occupancy, raised to primary load against PrimaryTarget when that
// is configured. This is the signal the autoscaler samples and the
// ordering key the picker minimizes. Caller holds p.mu.
func (p *Placer) utilLocked(n *StoreNode) float64 {
	u := n.usageFrac()
	if t := p.cfg.PrimaryTarget; t > 0 {
		if load := float64(p.primariesLocked(n)) / float64(t); load > u {
			u = load
		}
	}
	return u
}

// Utilization reports n's composite utilization (the max of device
// occupancy and resident-primary load against PrimaryTarget).
func (p *Placer) Utilization(n *StoreNode) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.utilLocked(n)
}

// pick chooses the best eligible node: active, not in `exclude`, and
// in a failure domain not in `domains`. Lower utilization wins, then
// fewer resident primaries, then name (deterministic). Caller holds
// p.mu.
func (p *Placer) pickLocked(exclude map[*StoreNode]bool, domains map[string]bool) *StoreNode {
	var best *StoreNode
	var bestFrac float64
	var bestPrim int
	for _, n := range p.nodes {
		if n.State() != StoreActive || exclude[n] || domains[n.Domain] {
			continue
		}
		frac := p.utilLocked(n)
		prim := p.primariesLocked(n)
		if best == nil ||
			frac < bestFrac ||
			(frac == bestFrac && prim < bestPrim) ||
			(frac == bestFrac && prim == bestPrim && n.Name < best.Name) {
			best, bestFrac, bestPrim = n, frac, prim
		}
	}
	return best
}

// Place schedules a new lineage onto the fleet: start is invoked on
// the chosen primary node to spawn and persist the workload there
// (the placer cannot know how to build the application). The placer
// then anchors the lineage on the primary's store, wires Replicas-1
// acked replica links to stores in distinct failure domains, and
// registers the supervisor watch. It fails with ErrNoFeasiblePlacement
// before starting anything if the fleet cannot satisfy anti-affinity.
func (p *Placer) Place(name string, start func(*StoreNode) (*Group, error)) (*Placement, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.placeLocked(name, start)
}

func (p *Placer) placeLocked(name string, start func(*StoreNode) (*Group, error)) (*Placement, error) {
	need := p.cfg.replicas()
	// Feasibility first: enough distinct live failure domains.
	domains := make(map[string]bool)
	for _, n := range p.nodes {
		if n.State() == StoreActive {
			domains[n.Domain] = true
		}
	}
	if len(domains) < need {
		return nil, fmt.Errorf("core: placing %q needs %d distinct failure domains, fleet has %d live: %w",
			name, need, len(domains), ErrNoFeasiblePlacement)
	}

	primary := p.pickLocked(nil, nil)
	if primary == nil {
		return nil, fmt.Errorf("core: placing %q: no live store: %w", name, ErrNoFeasiblePlacement)
	}
	g, err := start(primary)
	if err != nil {
		return nil, fmt.Errorf("core: placing %q on %s: %w", name, primary.Name, err)
	}

	primary.O.Attach(g, primary.SB)
	// Persisting the claim exercises the store's write path; a flaky
	// (fault-injected) device fails individual publishes without being
	// dead, so retry a few rolls before giving up on the placement.
	for attempt := 0; attempt < 8; attempt++ {
		if err = primary.O.claimPrimary(primary.SB, g.ID, g.Generation()); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: placing %q: claiming primary on %s: %w", name, primary.Name, err)
	}

	pl := &Placement{
		Lineage: g.ID,
		Name:    name,
		primary: primary,
		g:       g,
		sources: make(map[*StoreNode]ReplicaSource),
		wires:   make(map[*StoreNode]Backend),
	}
	exclude := map[*StoreNode]bool{primary: true}
	used := map[string]bool{primary.Domain: true}
	for i := 1; i < need; i++ {
		r := p.pickLocked(exclude, used)
		if r == nil {
			return nil, fmt.Errorf("core: placing %q: replica %d has no anti-affine store: %w",
				name, i, ErrNoFeasiblePlacement)
		}
		b, view, err := p.links.Link(primary, r, g.ID)
		if err != nil {
			return nil, fmt.Errorf("core: placing %q: linking %s→%s: %w", name, primary.Name, r.Name, err)
		}
		primary.O.Attach(g, b)
		pl.replicas = append(pl.replicas, r)
		pl.sources[r] = view
		pl.wires[r] = b
		exclude[r] = true
		used[r.Domain] = true
	}
	if primary.Sup != nil {
		primary.Sup.Watch(g)
	}
	p.placements[g.ID] = pl
	return pl, nil
}

// probe checks one store's health: publishing the index exercises the
// device's write path end to end. Transient injected faults fail a
// probe without failing the store — the DownAfter ladder separates a
// flaky device from a dead one, exactly like the PR 2 backend ladder.
func (p *Placer) probe(n *StoreNode) error {
	return n.SB.Store().Sync()
}

// Poll runs one control-plane round: probe every store, declare deaths,
// and process the evacuation/repair queues under the concurrency
// throttle. It returns the events of this round.
func (p *Placer) Poll() []PlacerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PlacerEvent

	for _, n := range p.nodes {
		st := n.State()
		if st != StoreActive && st != StoreDraining {
			continue
		}
		if err := p.probe(n); err != nil {
			n.mu.Lock()
			n.probeFails++
			fails := n.probeFails
			n.mu.Unlock()
			if fails >= p.cfg.downAfter() {
				out = append(out, p.markDownLocked(n, err)...)
			}
		} else {
			n.mu.Lock()
			n.probeFails = 0
			n.mu.Unlock()
		}
	}

	out = append(out, p.processQueuesLocked()...)
	p.events = append(p.events, out...)
	return out
}

// markDownLocked declares a store dead and queues its residents:
// primaries for evacuation (hot-first), replica roles for repair.
func (p *Placer) markDownLocked(n *StoreNode, cause error) []PlacerEvent {
	n.setState(StoreDown)
	events := []PlacerEvent{{Kind: "store-down", Store: n.Name, Err: cause}}

	var evac []uint64
	for lin, pl := range p.placements {
		if pl.lost {
			continue
		}
		if pl.primary == n {
			pl.evacuating = true
			evac = append(evac, lin)
			// The dead machine's supervisor must not fight the
			// evacuation by resurrecting the group locally.
			if n.Sup != nil {
				n.Sup.Release(pl.g)
			}
			continue
		}
		if slices.Contains(pl.replicas, n) {
			p.repairq = append(p.repairq, lin)
		}
	}
	// Hot lineages first: a replica caught up to the durable frontier
	// promotes with no catch-up to replay, so the hottest state is back
	// under a primary soonest. Ties break by lineage for determinism.
	sort.Slice(evac, func(i, j int) bool {
		a, b := p.placements[evac[i]], p.placements[evac[j]]
		ha, hb := p.hotLocked(a), p.hotLocked(b)
		if ha != hb {
			return ha
		}
		return evac[i] < evac[j]
	})
	p.evacq = append(p.evacq, evac...)
	sort.Slice(p.repairq, func(i, j int) bool { return p.repairq[i] < p.repairq[j] })
	return events
}

// hotLocked reports whether the replica a standby promotion of pl
// would elect is caught up to the group's durable frontier.
func (p *Placer) hotLocked(pl *Placement) bool {
	d := pl.g.Durable()
	r, floor := p.electStandbyLocked(pl)
	return r != nil && floor >= d
}

// processQueuesLocked drains up to EvacConcurrency entries from each
// queue. Each evacuation lands on its target machine's own clock — the
// detached-lane model of running the storm's members concurrently —
// while the queue bound keeps the fleet from re-homing every resident
// of a dead store in one indivisible burst.
func (p *Placer) processQueuesLocked() []PlacerEvent {
	var out []PlacerEvent
	budget := p.cfg.evacConcurrency()
	for len(p.evacq) > 0 && budget > 0 {
		lin := p.evacq[0]
		p.evacq = p.evacq[1:]
		budget--
		out = append(out, p.evacuateLocked(p.placements[lin]))
	}
	budget = p.cfg.evacConcurrency()
	for len(p.repairq) > 0 && budget > 0 {
		lin := p.repairq[0]
		p.repairq = p.repairq[1:]
		budget--
		if ev, acted := p.repairLocked(p.placements[lin]); acted {
			out = append(out, ev)
		}
	}
	return out
}

// evacuateLocked re-homes one lineage whose primary store died:
// standby promotion on the best surviving replica, then
// re-replication back to full strength under anti-affinity.
func (p *Placer) evacuateLocked(pl *Placement) PlacerEvent {
	from := pl.primary
	ev := PlacerEvent{Kind: "evacuated", Lineage: pl.Lineage, From: from.Name}

	target, _ := p.electStandbyLocked(pl)
	if target == nil {
		pl.lost = true
		ev.Kind = "evac-failed"
		ev.Err = fmt.Errorf("core: lineage %d has no surviving replica: %w", pl.Lineage, ErrNoFeasiblePlacement)
		return ev
	}

	// Standby promotion via the migrator's unplanned-handover path: it
	// reads images under the stream ID but fences and claims the
	// primary role under the stable lineage key, so the
	// exactly-one-primary-at-max-gen invariant holds across chained
	// re-homes. TTR lands on the target machine's own clock lane.
	rep, err := p.migrator(pl, from, target, pl.sources[target]).PromoteStandby()
	if err != nil {
		// Leave the lineage marked evacuating; a later Poll may have
		// better luck (the target could have been mid-fault).
		p.evacq = append(p.evacq, pl.Lineage)
		ev.Kind = "evac-failed"
		ev.Err = err
		return ev
	}
	pl.evacuating = false
	if err := p.rehomeLocked(pl, from, target, rep.Group); err != nil {
		ev.Err = err
	}
	if target.Sup != nil {
		target.Sup.Watch(pl.g)
	}
	ev.To = target.Name
	ev.Gen = rep.Gen
	ev.Floor = rep.Floor
	ev.TTR = rep.TTR
	return ev
}

// migrator wires a Migrator moving pl from one node to another over
// the receiver view on the target.
func (p *Placer) migrator(pl *Placement, from, to *StoreNode, view ReplicaSource) *Migrator {
	return &Migrator{
		Src:      from.O,
		Dst:      to.O,
		G:        pl.g,
		Target:   view,
		SrcStore: from.SB,
		DstStore: to.SB,
		Sup:      from.Sup,
		Cfg: MigratorConfig{
			MaxRounds: p.cfg.migrateRounds(),
			Lineage:   pl.Lineage,
			Name:      pl.Name,
			Retries:   p.cfg.Retries,
		},
	}
}

// rehomeLocked points pl at its new primary node to, running g, after
// a move off from: from's wires are dropped and the replica set is
// rebuilt to full strength, surviving active members first (their
// domains are anti-affine by construction) and fresh nodes for the
// rest. The new stream starts empty everywhere, so the seeding
// checkpoint is full — that is what makes the new replicas restorable
// on their own.
func (p *Placer) rehomeLocked(pl *Placement, from, to *StoreNode, g *Group) error {
	survivors := make([]*StoreNode, 0, len(pl.replicas))
	for _, r := range pl.replicas {
		p.links.Drop(from, r, pl.g.ID)
		if r != to && r.State() == StoreActive {
			survivors = append(survivors, r)
		}
	}
	pl.primary, pl.g, pl.replicas = to, g, nil
	pl.sources = make(map[*StoreNode]ReplicaSource)
	pl.wires = make(map[*StoreNode]Backend)
	return p.rewireLocked(pl, survivors)
}

// electStandbyLocked runs the handover's election over pl's replicas
// with a receiver view on a live store, in name order: the highest
// contiguous floor wins, equal floors go to the lowest name. A
// draining store is a legal standby source — it is alive and may hold
// the last good copy; the drain's own migrate-off pass moves the
// promoted primary along afterwards. Returns the elected node (nil when
// no replica qualifies) and its floor.
func (p *Placer) electStandbyLocked(pl *Placement) (*StoreNode, uint64) {
	var standbys []*StoreNode
	for _, r := range pl.replicas {
		if st := r.State(); (st == StoreActive || st == StoreDraining) && pl.sources[r] != nil {
			standbys = append(standbys, r)
		}
	}
	sort.Slice(standbys, func(i, j int) bool { return standbys[i].Name < standbys[j].Name })
	srcs := make([]ReplicaSource, len(standbys))
	for i, r := range standbys {
		srcs[i] = pl.sources[r]
	}
	if i, floor := electFloor(srcs, pl.g.ID); i >= 0 {
		return standbys[i], floor
	}
	return nil, 0
}

// repairLocked restores a placement's replication factor after a
// replica store died (the primary survived). Reported acted=false when
// the placement was already handled (evacuated or lost).
func (p *Placer) repairLocked(pl *Placement) (PlacerEvent, bool) {
	if pl == nil || pl.lost || pl.evacuating {
		return PlacerEvent{}, false
	}
	survivors := make([]*StoreNode, 0, len(pl.replicas))
	dropped := false
	for _, r := range pl.replicas {
		if r.State() == StoreActive {
			survivors = append(survivors, r)
			continue
		}
		// The group outlives this replica: detach the dead wire's
		// backend or every later sync would stall on its pending
		// epochs (a zombie no reconnect can heal).
		if w := pl.wires[r]; w != nil {
			_ = pl.primary.O.Detach(pl.g, w.Name())
			delete(pl.wires, r)
		}
		p.links.Drop(pl.primary, r, pl.g.ID)
		dropped = true
	}
	if !dropped && len(survivors) == p.cfg.replicas()-1 {
		return PlacerEvent{}, false
	}
	ev := PlacerEvent{Kind: "repaired", Lineage: pl.Lineage, From: pl.primary.Name, To: pl.primary.Name}
	pl.replicas = nil
	for n := range pl.sources {
		if !slices.Contains(survivors, n) {
			delete(pl.sources, n)
			if w := pl.wires[n]; w != nil {
				_ = pl.primary.O.Detach(pl.g, w.Name())
				delete(pl.wires, n)
			}
		}
	}
	if err := p.rewireLocked(pl, survivors); err != nil {
		ev.Err = err
	}
	return ev, true
}

// rewireLocked wires pl's replica set back to Replicas-1 members:
// keep (already-linked survivors or not) are re-linked first, then
// anti-affine fresh nodes fill the gap, and one full checkpoint seeds
// every link so each replica is restorable on its own.
func (p *Placer) rewireLocked(pl *Placement, keep []*StoreNode) error {
	primary := pl.primary
	stream := pl.g.ID
	exclude := map[*StoreNode]bool{primary: true}
	used := map[string]bool{primary.Domain: true}

	attach := func(r *StoreNode) error {
		b, view, err := p.links.Link(primary, r, stream)
		if err != nil {
			return fmt.Errorf("core: lineage %d: linking %s→%s: %w", pl.Lineage, primary.Name, r.Name, err)
		}
		if pl.wires[r] != b {
			// A surviving replica's wire is already attached to this
			// group; attaching twice would double-count its acks.
			primary.O.Attach(pl.g, b)
			pl.wires[r] = b
		}
		pl.replicas = append(pl.replicas, r)
		pl.sources[r] = view
		exclude[r] = true
		used[r.Domain] = true
		return nil
	}

	for _, r := range keep {
		if len(pl.replicas) >= p.cfg.replicas()-1 {
			break
		}
		if r.State() != StoreActive || used[r.Domain] {
			continue
		}
		if err := attach(r); err != nil {
			return err
		}
	}
	for len(pl.replicas) < p.cfg.replicas()-1 {
		r := p.pickLocked(exclude, used)
		if r == nil {
			// Anti-affinity is hard; replication factor is not. A fleet
			// that has lost too many domains runs the lineage degraded
			// (fewer copies) rather than dead — the next heal that
			// brings a domain back restores full strength.
			break
		}
		if err := attach(r); err != nil {
			return err
		}
	}
	return p.seedLocked(pl)
}

// seedLocked pushes one full checkpoint through the placement's links
// and drives the durable frontier to it, so every replica holds a
// restorable image of the lineage's current state.
func (p *Placer) seedLocked(pl *Placement) error {
	// The checkpoint runs even when the rewire came up empty (degraded
	// fleet, no anti-affine replica target): it is also what makes a
	// freshly promoted primary restorable from its own store — the new
	// stream holds nothing until the first checkpoint lands.
	// A shed checkpoint leaves a fresh replica empty — and an empty
	// standby is unpromotable. Retry until admission control lets the
	// seed through.
	for attempt := 0; ; attempt++ {
		bd, err := pl.primary.O.Checkpoint(pl.g, CheckpointOpts{Full: true})
		if err != nil {
			return fmt.Errorf("core: lineage %d: seeding replicas: %w", pl.Lineage, err)
		}
		if !bd.Shed {
			break
		}
		if attempt >= 16 {
			return fmt.Errorf("core: lineage %d: seeding replicas: admission control shed %d attempts", pl.Lineage, attempt)
		}
	}
	return p.syncLocked(pl)
}

// syncLocked drives pl's durable frontier to its barrier epoch,
// re-establishing faulted replica wires along the way (a dropped or
// corrupted frame kills the replica session; the directory's reset
// dance plus a Resync replays the pending epochs).
func (p *Placer) syncLocked(pl *Placement) error {
	var last error
	for round := 0; round < 24; round++ {
		last = pl.primary.O.Sync(pl.g)
		// Sync's epilogue resyncs degraded backends; its error is the
		// replica catch-up debt. Durable alone is NOT enough — the
		// durable frontier advances past a degraded replica (PR 2
		// health-ladder semantics), so a placement is in sync only when
		// the frontier is current AND no backend owes epochs. Otherwise
		// a standby could sit empty behind a healthy-looking frontier.
		if last == nil && pl.g.Durable() == pl.g.Epoch() {
			return nil
		}
		if round >= 2 {
			for _, r := range pl.replicas {
				_ = p.links.Reconnect(pl.primary, r, pl.g.ID)
			}
			_ = pl.primary.O.Resync(pl.g)
		}
	}
	return fmt.Errorf("core: lineage %d: durable stuck at %d (barrier %d): %w",
		pl.Lineage, pl.g.Durable(), pl.g.Epoch(), last)
}

// SyncDurable drives a lineage's durable frontier to its barrier
// epoch, healing faulted replica wires along the way. Workload drivers
// call this after checkpointing instead of hand-rolling the
// reconnect/resync dance.
func (p *Placer) SyncDurable(lineage uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.placements[lineage]
	if !ok || pl.lost {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrUnknownLineage)
	}
	if pl.evacuating {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrEvacuating)
	}
	return p.syncLocked(pl)
}

// BeginDrain marks a store as decommissioning: new placements are
// refused at once, but nothing moves yet. DrainStep advances the
// decommission in bounded increments; Undrain aborts it. Drain wraps
// all three for the synchronous one-call path.
func (p *Placer) BeginDrain(n *StoreNode) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.beginDrainLocked(n)
}

func (p *Placer) beginDrainLocked(n *StoreNode) error {
	switch n.State() {
	case StoreDraining:
		return fmt.Errorf("core: store %s already draining: %w", n.Name, ErrDraining)
	case StoreDown, StoreFenced:
		return fmt.Errorf("core: store %s is %s, not drainable: %w", n.Name, n.State(), ErrNoFeasiblePlacement)
	}
	n.setState(StoreDraining)
	return nil
}

// DrainStep advances a decommission by a bounded amount: it settles
// queued evacuation/repair work first (the drainee may hold the last
// good copy of a lineage whose primary just died — election accepts
// draining stores as standby sources for exactly this interleaving),
// then live-migrates up to budget resident primaries off, then
// re-homes replica roles, and fences the store once it holds nothing.
// done reports whether the store is now fenced. On error the store
// stays draining — the caller retries the step or rolls the drain
// back with Undrain.
func (p *Placer) DrainStep(n *StoreNode, budget int) ([]PlacerEvent, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	evs, done, err := p.drainStepLocked(n, budget)
	p.events = append(p.events, evs...)
	return evs, done, err
}

func (p *Placer) drainStepLocked(n *StoreNode, budget int) ([]PlacerEvent, bool, error) {
	if n.State() != StoreDraining {
		return nil, false, fmt.Errorf("core: store %s is %s, not draining: %w", n.Name, n.State(), ErrNoFeasiblePlacement)
	}
	if budget <= 0 {
		budget = 1
	}
	var out []PlacerEvent
	if len(p.evacq)+len(p.repairq) > 0 {
		out = append(out, p.processQueuesLocked()...)
		if len(p.evacq)+len(p.repairq) > 0 {
			// Still storming: the step made progress but the store is
			// not yet safe to empty.
			return out, false, nil
		}
	}

	moved := 0
	for _, lin := range p.lineagesLocked(func(pl *Placement) bool {
		return pl.primary == n && !pl.lost && !pl.evacuating
	}) {
		if moved >= budget {
			return out, false, nil
		}
		ev, err := p.migrateOffLocked(p.placements[lin], n)
		out = append(out, ev)
		moved++
		if err != nil {
			return out, false, err
		}
	}
	// Re-home replica roles parked on the draining store.
	for _, lin := range p.lineagesLocked(func(pl *Placement) bool { return slices.Contains(pl.replicas, n) }) {
		if moved >= budget {
			return out, false, nil
		}
		if ev, acted := p.repairLocked(p.placements[lin]); acted {
			out = append(out, ev)
			moved++
			if ev.Err != nil {
				return out, false, ev.Err
			}
		}
	}
	n.setState(StoreFenced)
	out = append(out, PlacerEvent{Kind: "drained", Store: n.Name})
	return out, true, nil
}

// Undrain aborts a decommission and re-admits the store: Draining
// flips back to Active with the store's labels, residents, and probe
// ladder intact, and every directory wire the store participates in is
// re-handshaken — a drain abandoned mid-migration can leave replica
// sessions poisoned, and a re-admitted store must replicate again
// immediately. Only a draining store can be undrained; fenced and down
// stores re-enter the fleet through their own paths.
func (p *Placer) Undrain(n *StoreNode) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n.State() != StoreDraining {
		return fmt.Errorf("core: store %s is %s, not draining: %w", n.Name, n.State(), ErrNoFeasiblePlacement)
	}
	n.setState(StoreActive)
	n.mu.Lock()
	n.probeFails = 0
	n.mu.Unlock()

	var firstErr error
	for _, lin := range p.lineagesLocked(func(pl *Placement) bool { return !pl.lost && !pl.evacuating }) {
		pl := p.placements[lin]
		if pl.primary == n {
			for _, r := range pl.replicas {
				if st := r.State(); st != StoreActive && st != StoreDraining {
					continue
				}
				if err := p.links.Reconnect(n, r, pl.g.ID); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		for _, r := range pl.replicas {
			if r != n {
				continue
			}
			if st := pl.primary.State(); st == StoreActive || st == StoreDraining {
				if err := p.links.Reconnect(pl.primary, n, pl.g.ID); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			break
		}
	}
	p.events = append(p.events, PlacerEvent{Kind: "undrained", Store: n.Name, Err: firstErr})
	return firstErr
}

// Drain decommissions a store synchronously: new placements are
// refused at once, every resident primary live-migrates off (the
// lineage keeps running — this is the PR 8 migrator, not a promotion),
// every replica role is re-homed, and the emptied store is fenced. A
// partially drained store stays draining on error so the operator can
// retry (or roll back with Undrain).
func (p *Placer) Drain(n *StoreNode) ([]PlacerEvent, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.beginDrainLocked(n); err != nil {
		return nil, err
	}
	var out []PlacerEvent
	limit := 64 + len(p.evacq) + len(p.repairq) + len(p.placements)
	for iter := 0; iter < limit; iter++ {
		evs, done, err := p.drainStepLocked(n, len(p.placements)+1)
		out = append(out, evs...)
		if err != nil || done {
			p.events = append(p.events, out...)
			return out, err
		}
	}
	p.events = append(p.events, out...)
	evac, repair := len(p.evacq), len(p.repairq)
	return out, fmt.Errorf("core: draining %s: evacuation storm did not settle (evac %d, repair %d): %w",
		n.Name, evac, repair, ErrEvacuating)
}

// Unplace retires a lineage from the fleet: replica wires are dropped,
// the group stops persisting on its primary, and the placement is
// forgotten. Stored epochs stay behind for retention GC — retirement
// is a routing decision, not an erase. This is the load-decay half of
// elasticity: scale-in needs lineages to leave as well as arrive.
func (p *Placer) Unplace(lineage uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, ok := p.placements[lineage]
	if !ok {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrUnknownLineage)
	}
	if pl.evacuating {
		return fmt.Errorf("core: lineage %d: %w", lineage, ErrEvacuating)
	}
	if !pl.lost {
		for _, r := range pl.replicas {
			if w := pl.wires[r]; w != nil {
				_ = pl.primary.O.Detach(pl.g, w.Name())
			}
			p.links.Drop(pl.primary, r, pl.g.ID)
		}
		if pl.primary.Sup != nil {
			pl.primary.Sup.Unwatch(pl.g)
		}
		pl.primary.O.Unpersist(pl.g)
	}
	delete(p.placements, lineage)
	delete(p.lastMoved, lineage)
	p.events = append(p.events, PlacerEvent{Kind: "unplaced", Lineage: lineage, From: pl.primary.Name})
	return nil
}

// migrateOffLocked live-migrates one resident lineage off node n to
// the best compatible node (never a current member; anti-affine to the
// surviving replica set), then rewires replication under the migrated
// stream. Used by Drain and Rebalance — the planned moves, where the
// source still runs.
func (p *Placer) migrateOffLocked(pl *Placement, n *StoreNode) (PlacerEvent, error) {
	ev := PlacerEvent{Kind: "migrated", Lineage: pl.Lineage, From: n.Name}
	exclude := map[*StoreNode]bool{n: true}
	used := map[string]bool{}
	for _, r := range pl.replicas {
		exclude[r] = true
		if r.State() == StoreActive {
			used[r.Domain] = true
		}
	}
	dst := p.pickLocked(exclude, used)
	if dst == nil {
		ev.Err = fmt.Errorf("core: lineage %d: no anti-affine target off %s: %w",
			pl.Lineage, n.Name, ErrNoFeasiblePlacement)
		return ev, ev.Err
	}

	stream := pl.g.ID
	b, view, err := p.links.Link(n, dst, stream)
	if err != nil {
		ev.Err = err
		return ev, err
	}
	mig := p.migrator(pl, n, dst, view)
	mig.Link = b
	mig.Reconnect = func() error {
		// A pre-copy round syncs through every attached backend, so a
		// transiently faulted replica wire stalls the migration as
		// surely as the migration wire itself — heal them all.
		for _, r := range pl.replicas {
			if r.State() == StoreActive || r.State() == StoreDraining {
				_ = p.links.Reconnect(n, r, stream)
			}
		}
		return p.links.Reconnect(n, dst, stream)
	}
	rep, err := mig.Run(func() error { return nil })
	if err != nil {
		// The source keeps running this lineage: detach the migration
		// backend Start attached, or every later sync stalls on a wire
		// whose directory entry is about to disappear.
		mig.Abandon()
		p.links.Drop(n, dst, stream)
		ev.Err = err
		return ev, err
	}
	p.links.Drop(n, dst, stream)
	if err := p.rehomeLocked(pl, n, dst, rep.Group); err != nil {
		ev.Err = err
		return ev, err
	}
	if dst.Sup != nil {
		dst.Sup.Watch(pl.g)
	}
	ev.To = dst.Name
	ev.Gen = rep.Gen
	ev.Floor = rep.Floor
	ev.TTR = rep.Blackout
	return ev, nil
}

// RebalanceOpts tunes one paced rebalance tick.
type RebalanceOpts struct {
	// Budget caps migrations performed this tick (default 1) — the
	// rate limit that keeps background churn from starving foreground
	// checkpoint traffic.
	Budget int
	// HighWater overrides the pressure threshold for this tick (0
	// keeps the placer default). The autoscaler seeds a fresh store by
	// ticking with its own scale-out threshold.
	HighWater float64
}

// RebalanceTick runs one paced rebalance round: the pressured set is
// re-snapshotted NOW — a lineage placed since the previous tick is an
// eligible mover, closing the stale-snapshot blind spot of the old
// one-pass Rebalance — and the most pressured stores shed their
// heaviest eligible lineage toward the emptiest compatible store,
// bounded by Budget. A lineage moved within the last MoveCooldownTicks
// ticks is ineligible (ping-pong protection across ticks).
func (p *Placer) RebalanceTick(opts RebalanceOpts) ([]PlacerEvent, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	evs, err := p.rebalanceTickLocked(opts)
	p.events = append(p.events, evs...)
	return evs, err
}

func (p *Placer) rebalanceTickLocked(opts RebalanceOpts) ([]PlacerEvent, error) {
	p.rebalTick++
	budget := opts.Budget
	if budget <= 0 {
		budget = 1
	}
	high := opts.HighWater
	if high <= 0 {
		high = p.cfg.highWater()
	}
	cool := p.cfg.moveCooldownTicks()

	// Fresh pressure snapshot, most pressured first (ties by name).
	type pressure struct {
		n    *StoreNode
		util float64
	}
	var pressured []pressure
	for _, n := range p.nodes {
		if n.State() != StoreActive {
			continue
		}
		if u := p.utilLocked(n); u >= high {
			pressured = append(pressured, pressure{n, u})
		}
	}
	sort.Slice(pressured, func(i, j int) bool {
		if pressured[i].util != pressured[j].util {
			return pressured[i].util > pressured[j].util
		}
		return pressured[i].n.Name < pressured[j].n.Name
	})

	var out []PlacerEvent
	var firstErr error
	for _, pr := range pressured {
		if budget <= 0 {
			break
		}
		n := pr.n
		// Heaviest eligible resident lineage by referenced bytes.
		var victim *Placement
		var victimBytes int64
		for _, pl := range p.placements {
			if pl.primary != n || pl.lost || pl.evacuating {
				continue
			}
			if moved, ok := p.lastMoved[pl.Lineage]; ok && p.rebalTick < moved+cool {
				continue
			}
			sz := n.SB.Store().LineageBytes(pl.g.ID)
			if victim == nil || sz > victimBytes ||
				(sz == victimBytes && pl.Lineage < victim.Lineage) {
				victim, victimBytes = pl, sz
			}
		}
		if victim == nil {
			continue
		}
		ev, err := p.migrateOffLocked(victim, n)
		ev.Kind = "rebalanced"
		if errors.Is(err, ErrNoFeasiblePlacement) {
			// No anti-affine target exists right now (degraded fleet);
			// pressure relief waits for capacity, it doesn't fail.
			ev.Kind = "rebalance-skipped"
			out = append(out, ev)
			continue
		}
		if err == nil {
			p.lastMoved[victim.Lineage] = p.rebalTick
		}
		budget--
		out = append(out, ev)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// Rebalance runs paced ticks until a tick moves nothing (or errors):
// the synchronous relief-valve call for operators and tests. The
// background pacer path is RebalanceTick, driven by the autoscaler
// with a per-tick budget.
func (p *Placer) Rebalance() ([]PlacerEvent, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PlacerEvent
	var firstErr error
	skipped := make(map[uint64]bool)
	for iter := 0; iter < 64; iter++ {
		evs, err := p.rebalanceTickLocked(RebalanceOpts{Budget: len(p.nodes) + 1})
		moved := 0
		for _, ev := range evs {
			if ev.Kind == "rebalance-skipped" {
				// Report each stuck lineage once per call, not per tick.
				if skipped[ev.Lineage] {
					continue
				}
				skipped[ev.Lineage] = true
			} else if ev.Err == nil {
				moved++
			}
			out = append(out, ev)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if moved == 0 || firstErr != nil {
			break
		}
	}
	p.events = append(p.events, out...)
	return out, firstErr
}

// AntiAffinityViolations audits every live placement against the hard
// constraint: no two members (primary or replica) share a failure
// domain. The heal-time acceptance gate asserts this returns nothing.
func (p *Placer) AntiAffinityViolations() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, pl := range p.placements {
		if pl.lost || pl.evacuating {
			continue
		}
		seen := map[string]string{pl.primary.Domain: pl.primary.Name}
		for _, r := range pl.replicas {
			if other, dup := seen[r.Domain]; dup {
				out = append(out, fmt.Sprintf("lineage %d: %s and %s share domain %s",
					pl.Lineage, other, r.Name, r.Domain))
			} else {
				seen[r.Domain] = r.Name
			}
		}
	}
	sort.Strings(out)
	return out
}

// QueueDepths reports the pending evacuation and repair backlogs (the
// throttle's visible state).
func (p *Placer) QueueDepths() (evac, repair int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.evacq), len(p.repairq)
}
