package bench

import (
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
)

// This file is the elastic-autoscaling chaos harness (the scale-storm
// gate behind `make scalecheck`): a small base fleet plus a warm pool
// of provisioned-but-unadmitted spares is driven by core.Autoscaler
// while open-loop load ramps up, bursts, and ramps back down over
// fault-injecting links and store devices. The schedule deliberately
// hits both scale directions mid-flight:
//
//   - Ramp-up: arrivals land until the fleet-wide high-watermark holds
//     above target; the autoscaler must admit spares one at a time and
//     seed each via paced rebalance until pressure relieves. The first
//     spare in the pool is dead on arrival (its device is down before
//     admission) — the autoscaler must skip it with a recorded
//     decision and keep going, never wedging the ramp.
//   - Mid-scale-in chaos: load retires until a scale-in begins, one
//     drain step lands, and then the storm hits — a burst of arrivals
//     re-pressurizes the fleet AND the busiest surviving store's
//     device dies. The in-flight drain must roll back (the drainee
//     re-admitted with wires re-handshaken, zero fenced survivors)
//     while the death drives a normal evacuation storm around it.
//   - Ramp-down: load retires to a floor and the autoscaler must
//     converge the fleet back to MinStores through repeated drains.
//
// After the dust settles every surviving lineage must be bit-identical
// (live counter + patterned pages + scratch-machine restore), durable
// must never have regressed, exactly one store may claim each
// lineage's primary role at the max generation, and anti-affinity must
// hold — all asserted both by the engine and by the autoscaler's own
// per-tick audit (InvariantViolations must stay empty).

// AutoscaleChaosConfig parameterizes one scale-storm run. Zero values
// pick defaults.
type AutoscaleChaosConfig struct {
	Seed int64

	// BaseStores is the admitted fleet at t=0 (default 2; also the
	// autoscaler's MinStores floor).
	BaseStores int
	// MaxStores bounds the active fleet (default 6). The warm pool is
	// sized MaxStores-BaseStores healthy spares plus one dead spare.
	MaxStores int
	// PeakGroups is the arrival target of the ramp-up (default 24; the
	// acceptance gate runs 48 via AURORA_SCALE_GROUPS, which forces the
	// fleet all the way to MaxStores).
	PeakGroups int
	// FloorGroups is where the final ramp-down stops (default 4).
	FloorGroups int
	// PrimaryTarget is the per-store resident-primary budget feeding
	// composite utilization (default 8).
	PrimaryTarget int
	// ArrivalsPerTick / RetireesPerTick pace the open-loop ramps
	// (defaults 3 / 3).
	ArrivalsPerTick int
	RetireesPerTick int
	// StepsPerEpoch is scheduler quanta per resident group per workload
	// round (default 2); CheckpointEvery checkpoints+syncs every Nth
	// round (default 2 — the tick loop is long, and checkpointing every
	// lineage every tick would swamp the schedule without sharpening
	// any assertion).
	StepsPerEpoch   int
	CheckpointEvery int
	// Replicas / EvacConcurrency mirror the placement harness
	// (defaults 2 / 8).
	Replicas        int
	EvacConcurrency int

	// Per-frame link fault probabilities on every replication wire.
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64
	// Store fault probabilities (every store's device).
	StoreWriteErr float64
	StoreReadErr  float64
}

func (c AutoscaleChaosConfig) withDefaults() AutoscaleChaosConfig {
	if c.BaseStores == 0 {
		c.BaseStores = 2
	}
	if c.MaxStores == 0 {
		c.MaxStores = 6
	}
	if c.PeakGroups == 0 {
		c.PeakGroups = 24
	}
	if c.FloorGroups == 0 {
		c.FloorGroups = 4
	}
	if c.PrimaryTarget == 0 {
		c.PrimaryTarget = 8
	}
	if c.ArrivalsPerTick == 0 {
		c.ArrivalsPerTick = 3
	}
	if c.RetireesPerTick == 0 {
		c.RetireesPerTick = 3
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 2
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.EvacConcurrency == 0 {
		c.EvacConcurrency = 8
	}
	return c
}

// AutoscaleChaosReport is the outcome of one scale-storm run.
type AutoscaleChaosReport struct {
	Seed       int64
	PeakGroups int

	Placed  int // lineages placed (arrivals + burst)
	Retired int // lineages retired by the ramps

	ScaledTo     int    // active stores at ramp-up convergence
	ExpectedPeak int    // minimum the load level must force
	DeadSpare    string // the dead-on-arrival warm spare
	DeadSkipped  bool   // autoscaler recorded its skip
	ScaleOuts    int    // admissions
	ScaleIns     int    // completed drains (stores fenced)
	Rollbacks    int    // drains rolled back
	Drainee      string // the chaos leg's rolled-back drainee
	Victim       string // the store killed mid-scale-in
	BurstGroups  int    // arrivals injected mid-scale-in
	Evacuated    int    // lineages re-homed off the dead victim

	// Convergence: control-loop ticks (and lane virtual time) from the
	// start of each ramp until the fleet settles at the target size.
	ConvergeOutTicks int
	ConvergeOutTime  time.Duration
	ConvergeInTicks  int
	ConvergeInTime   time.Duration

	RestoresVerified int // bit-identical verifications (live + scratch)
	Violations       int // engine + autoscaler invariant failures (must be 0)
	FinalActive      int
	FinalGroups      int
	FinalDurable     uint64
}

// scaleRun carries the harness state.
type scaleRun struct {
	*fleet
	cfg AutoscaleChaosConfig
	rep *AutoscaleChaosReport
	as  *core.Autoscaler

	round   int // workload rounds driven (checkpoint cadence)
	nextApp int // next arrival index
}

// AutoscaleChaosRun executes one scale-storm schedule.
func AutoscaleChaosRun(cfg AutoscaleChaosConfig) (*AutoscaleChaosReport, error) {
	cfg = cfg.withDefaults()
	r := &scaleRun{
		fleet: newFleet("autoscale", cfg.Seed, cfg.StepsPerEpoch, netback.LinkFaultConfig{
			Drop:    cfg.LinkDrop,
			Dup:     cfg.LinkDup,
			Reorder: cfg.LinkReorder,
			Corrupt: cfg.LinkCorrupt,
		}, core.PlacerConfig{
			Replicas:        cfg.Replicas,
			EvacConcurrency: cfg.EvacConcurrency,
			DownAfter:       5,
			Retries:         8,
			PrimaryTarget:   cfg.PrimaryTarget,
		}),
		cfg: cfg,
		rep: &AutoscaleChaosReport{Seed: cfg.Seed, PeakGroups: cfg.PeakGroups},
	}

	// Base fleet admitted, spares warm. The pool's first spare is dead
	// on arrival: its device goes down before the autoscaler ever sees
	// it, so the first scale-out must skip it.
	build := func(i int) *core.StoreNode {
		return r.store(i, fmt.Sprintf("rack%d", i%2), cfg.StoreWriteErr, cfg.StoreReadErr)
	}
	for i := 0; i < cfg.BaseStores; i++ {
		if err := r.placer.AddStore(build(i)); err != nil {
			return nil, err
		}
	}
	r.as = core.NewAutoscaler(r.placer, core.AutoscalerConfig{
		MinStores:       cfg.BaseStores,
		MaxStores:       cfg.MaxStores,
		RebalanceBudget: 2,
		DrainBudget:     1,
	})
	dead := build(cfg.BaseStores)
	r.bench[dead].fd.Down()
	r.rep.DeadSpare = dead.Name
	if err := r.as.AddWarmStore(dead); err != nil {
		return nil, err
	}
	for i := cfg.BaseStores + 1; i <= cfg.MaxStores; i++ {
		if err := r.as.AddWarmStore(build(i)); err != nil {
			return nil, err
		}
	}

	// The load level the ramp reaches forces at least this many active
	// stores: a store below the high watermark holds at most
	// ceil(HighUtil*PrimaryTarget)-1 primaries, and the paced rebalance
	// spreads toward even, so any smaller fleet pigeonholes some store
	// above the watermark for every window.
	perStore := int(0.85*float64(cfg.PrimaryTarget)+0.999999) - 1
	r.rep.ExpectedPeak = (cfg.PeakGroups + perStore - 1) / perStore
	if r.rep.ExpectedPeak > cfg.MaxStores {
		r.rep.ExpectedPeak = cfg.MaxStores
	}
	if r.rep.ExpectedPeak < cfg.BaseStores {
		r.rep.ExpectedPeak = cfg.BaseStores
	}

	if err := r.rampUp(); err != nil {
		return nil, err
	}
	if err := r.scaleInStorm(); err != nil {
		return nil, err
	}
	if err := r.rampDown(); err != nil {
		return nil, err
	}
	// The ramp-down may settle on an off-cadence round, leaving live
	// counters ahead of the last recorded durable epoch; land one
	// forced checkpoint+sync so the sweep compares like with like.
	if err := r.workload(true); err != nil {
		return nil, err
	}

	// Final verification sweep: every surviving lineage bit-identical,
	// live and from a scratch restore; fleet invariants hold; the
	// autoscaler's own per-tick audit saw nothing.
	for _, pl := range r.placer.Placements() {
		pl, ok := r.live(pl.Lineage)
		if !ok {
			return nil, r.errorf("lineage lost at end of run")
		}
		if err := r.verifyLineage(pl, "final"); err != nil {
			return nil, err
		}
		r.rep.FinalGroups++
		if d := pl.Group().Durable(); d > r.rep.FinalDurable {
			r.rep.FinalDurable = d
		}
	}
	if err := r.checkInvariants("final"); err != nil {
		return nil, err
	}
	if v := r.as.InvariantViolations(); len(v) != 0 {
		r.violations += len(v)
		return nil, r.errorf("autoscaler audit: %v", v)
	}
	r.rep.FinalActive = r.active()
	r.rep.RestoresVerified, r.rep.Violations = r.verified, r.violations
	return r.rep, nil
}

func (r *scaleRun) active() int {
	n := 0
	for _, sn := range r.placer.Stores() {
		if sn.State() == core.StoreActive {
			n++
		}
	}
	return n
}

func (r *scaleRun) liveGroups() int {
	n := 0
	for _, pl := range r.placer.Placements() {
		if _, ok := r.live(pl.Lineage); ok {
			n++
		}
	}
	return n
}

// placeOne lands the next arrival. A transient placement failure (the
// storm can eat a seed checkpoint) is returned for the caller to retry
// next tick.
func (r *scaleRun) placeOne() error {
	if err := r.place(r.nextApp); err != nil {
		return err
	}
	r.nextApp++
	r.rep.Placed++
	return nil
}

// retireSome unplaces up to n lineages, always from the store holding
// the most primaries (newest resident first), so the ramp-down decays
// toward even rather than stranding one hot store above the low
// watermark forever. Lineages mid-evacuation are skipped.
func (r *scaleRun) retireSome(n int) {
	for ; n > 0; n-- {
		byStore := make(map[*core.StoreNode][]uint64)
		for _, pl := range r.placer.Placements() {
			if pl, ok := r.live(pl.Lineage); ok {
				byStore[pl.Primary()] = append(byStore[pl.Primary()], pl.Lineage)
			}
		}
		var busiest *core.StoreNode
		for sn, lins := range byStore {
			if busiest == nil || len(lins) > len(byStore[busiest]) ||
				(len(lins) == len(byStore[busiest]) && sn.Name < busiest.Name) {
				busiest = sn
			}
		}
		if busiest == nil {
			return
		}
		var pick uint64
		for _, lin := range byStore[busiest] {
			if lin > pick {
				pick = lin
			}
		}
		if err := r.placer.Unplace(pick); err != nil {
			return // mid-evacuation churn; retry next tick
		}
		r.rep.Retired++
	}
}

// workload drives one open-loop round: resident groups run on every
// live store, and on the checkpoint cadence (or when forced) every
// routable lineage checkpoints and syncs durable.
func (r *scaleRun) workload(force bool) error {
	r.round++
	if err := r.run(); err != nil {
		return err
	}
	if r.round%r.cfg.CheckpointEvery != 0 && !force {
		return nil
	}
	return r.checkpoint()
}

// tick advances the autoscaler one control round and tallies its
// decision.
func (r *scaleRun) tick() core.ScaleDecision {
	dec, _ := r.as.Tick()
	switch dec.Action {
	case "scale-out":
		r.rep.ScaleOuts++
	case "scale-in-done":
		r.rep.ScaleIns++
	case "scale-in-rollback":
		r.rep.Rollbacks++
	}
	for _, d := range r.as.Decisions() {
		if d.Action == "scale-out-skipped" && d.Store == r.rep.DeadSpare {
			r.rep.DeadSkipped = true
		}
	}
	return dec
}

// rampUp lands arrivals until the peak and drives the loop until the
// fleet converges at the forced size with the autoscaler idle.
func (r *scaleRun) rampUp() error {
	start := r.as.Status()
	maxTicks := 40*(r.rep.ExpectedPeak-r.cfg.BaseStores) + 8*r.cfg.PeakGroups + 100
	for t := 1; ; t++ {
		if t > maxTicks {
			return r.errorf("ramp-up did not converge (%d active, want >= %d, after %d ticks)",
				r.active(), r.rep.ExpectedPeak, maxTicks)
		}
		for i := 0; i < r.cfg.ArrivalsPerTick && r.nextApp < r.cfg.PeakGroups; i++ {
			if err := r.placeOne(); err != nil {
				break // transient fault; retry next tick
			}
		}
		if err := r.workload(false); err != nil {
			return err
		}
		r.tick()
		st := r.as.Status()
		if r.nextApp == r.cfg.PeakGroups && st.Phase == "idle" && r.active() >= r.rep.ExpectedPeak {
			r.rep.ScaledTo = r.active()
			r.rep.ConvergeOutTicks = t
			r.rep.ConvergeOutTime = st.At - start.At
			break
		}
	}
	if !r.rep.DeadSkipped {
		return r.errorf("dead warm spare %s was never skipped", r.rep.DeadSpare)
	}
	for _, sn := range r.placer.Stores() {
		if sn.Name == r.rep.DeadSpare {
			return r.errorf("dead spare %s was admitted (state %s)",
				sn.Name, sn.State())
		}
	}
	return r.checkInvariants("post-ramp-up")
}

// scaleInStorm retires load until a scale-in begins, lets one drain
// step land, then hits the fleet with a burst of arrivals AND kills
// the busiest surviving store. The in-flight drain must roll back and
// the death must evacuate cleanly around it.
func (r *scaleRun) scaleInStorm() error {
	// Retire toward the low watermark until the autoscaler commits.
	var drainee *core.StoreNode
	maxTicks := 8*r.cfg.PeakGroups + 100
	for t := 1; ; t++ {
		if t > maxTicks {
			return r.errorf("scale-in never began (%d groups live, %d active, after %d ticks)",
				r.liveGroups(), r.active(), maxTicks)
		}
		if r.liveGroups() > r.cfg.FloorGroups {
			r.retireSome(r.cfg.RetireesPerTick)
		}
		if err := r.workload(false); err != nil {
			return err
		}
		dec := r.tick()
		if dec.Action == "scale-in-begin" {
			n, err := r.placer.Node(dec.Store)
			if err != nil {
				return err
			}
			drainee = n
			r.rep.Drainee = n.Name
			break
		}
		// A drain that empties before the storm lands is a clean
		// scale-in; the chaos leg needs one in flight, so keep going.
	}

	// One drain step lands (the tick after begin advances the drain),
	// so the rollback is genuinely mid-drain.
	if err := r.workload(false); err != nil {
		return err
	}
	r.tick()
	if drainee.State() == core.StoreFenced {
		return r.errorf("drain of %s completed before the storm could land",
			drainee.Name)
	}

	// The storm: burst arrivals sized to pigeonhole some store above
	// the high watermark even when spread perfectly even across the
	// surviving non-draining stores, then the busiest of those dies.
	counted := 0
	resident := r.residents()
	var victim *core.StoreNode
	for _, sn := range r.placer.Stores() {
		if sn.State() != core.StoreActive || sn == drainee {
			continue
		}
		counted++
		if victim == nil || resident[sn] > resident[victim] ||
			(resident[sn] == resident[victim] && sn.Name < victim.Name) {
			victim = sn
		}
	}
	// The victim still counts toward the high-watermark until the probe
	// ladder declares it (and soaks up arrivals until then), so the
	// pigeonhole is over every counted store, victim included: enough
	// load that even a perfectly even spread pins some store at or
	// above the high watermark.
	need := int(0.85*float64(r.cfg.PrimaryTarget) + 0.999999)
	burst := need*counted + 2 - r.liveGroups()
	if burst < 4 {
		burst = 4
	}
	r.rep.BurstGroups = burst
	target := r.nextApp + burst
	for r.nextApp < target {
		if err := r.placeOne(); err != nil {
			return r.errorf("burst arrival: %w", err)
		}
	}
	// One forced checkpoint round before the kill: a just-placed burst
	// lineage has wired but unseeded replicas (floor 0), and a primary
	// that dies before its first checkpoint leaves a standby with
	// nothing to promote.
	if err := r.workload(true); err != nil {
		return err
	}
	victimResidents := make([]uint64, 0, resident[victim])
	for _, pl := range r.placer.Placements() {
		if pl, ok := r.live(pl.Lineage); ok && pl.Primary() == victim {
			victimResidents = append(victimResidents, pl.Lineage)
		}
	}
	r.rep.Victim = victim.Name
	r.bench[victim].fd.Down()

	// No workload rounds until the death is declared and the storm
	// drains: checkpoints against the dead primary would fail before
	// evacuation re-homes them (same discipline as the placement
	// harness's kill leg). The rollback must surface first.
	sawRollback := false
	maxPolls := 16 + (len(victimResidents)/r.cfg.EvacConcurrency+1)*8 + 40
	for poll := 0; ; poll++ {
		if poll > maxPolls {
			evac, repair := r.placer.QueueDepths()
			return r.errorf("storm did not settle after %d polls (rollback %v, victim %s, evac %d, repair %d, phase %s, active %d)",
				maxPolls, sawRollback, victim.State(), evac, repair, r.as.Status().Phase, r.active())
		}
		dec := r.tick()
		switch dec.Action {
		case "scale-in-rollback":
			sawRollback = true
			if drainee.State() != core.StoreActive {
				return r.errorf("rollback left %s in state %s, want active",
					drainee.Name, drainee.State())
			}
			for _, sn := range r.placer.Stores() {
				if sn.State() == core.StoreFenced {
					return r.errorf("fenced survivor %s after rollback",
						sn.Name)
				}
			}
		case "scale-in-done":
			if !sawRollback {
				return r.errorf("chaos drain of %s completed instead of rolling back",
					drainee.Name)
			}
		}
		evac, repair := r.placer.QueueDepths()
		if sawRollback && victim.State() == core.StoreDown && evac == 0 && repair == 0 {
			break
		}
	}

	// Every victim resident re-homed and bit-identical; the rolled-back
	// drainee is a first-class citizen again (promotions may well have
	// landed on it through its re-handshaken wires).
	for _, lin := range victimResidents {
		pl, ok := r.live(lin)
		if !ok {
			return r.errorf("lineage %d not routable after victim evacuation", lin)
		}
		if pl.Primary() == victim {
			return r.errorf("lineage %d still resident on dead %s", lin, victim.Name)
		}
		if err := r.verifyLineage(pl, "post-storm"); err != nil {
			return err
		}
		r.rep.Evacuated++
	}
	return r.checkInvariants("post-storm")
}

// rampDown retires load to the floor and drives the loop until the
// fleet converges back to MinStores with the autoscaler idle.
func (r *scaleRun) rampDown() error {
	start := r.as.Status()
	maxTicks := 60*r.cfg.MaxStores + 8*r.cfg.PeakGroups + 200
	for t := 1; ; t++ {
		if t > maxTicks {
			return r.errorf("ramp-down did not converge (%d active, want %d, after %d ticks)",
				r.active(), r.cfg.BaseStores, maxTicks)
		}
		if r.liveGroups() > r.cfg.FloorGroups {
			r.retireSome(r.cfg.RetireesPerTick)
		}
		if err := r.workload(false); err != nil {
			return err
		}
		r.tick()
		st := r.as.Status()
		if r.liveGroups() <= r.cfg.FloorGroups && st.Phase == "idle" && r.active() <= r.cfg.BaseStores {
			r.rep.ConvergeInTicks = t
			r.rep.ConvergeInTime = st.At - start.At
			break
		}
	}
	if got := r.active(); got != r.cfg.BaseStores {
		return r.errorf("ramp-down settled at %d active stores, want %d",
			got, r.cfg.BaseStores)
	}
	// Every fenced store must be truly empty: a drain that fences a
	// store still holding a resident would strand it.
	for _, sn := range r.placer.Stores() {
		if sn.State() != core.StoreFenced {
			continue
		}
		for _, pl := range r.placer.Placements() {
			if pl, ok := r.live(pl.Lineage); ok && pl.Primary() == sn {
				return r.errorf("lineage %d stranded on fenced %s",
					pl.Lineage, sn.Name)
			}
		}
	}
	return r.checkInvariants("post-ramp-down")
}

// --- Sweep -----------------------------------------------------------

// AutoscalePoint is one cell of the autoscale matrix. The convergence
// tick counts feed the 2x regression gate against the committed
// baseline.
type AutoscalePoint struct {
	LinkFaultPct     float64 `json:"link_fault_pct"`
	PeakGroups       int     `json:"peak_groups"`
	ScaledTo         int     `json:"scaled_to"`
	ScaleOuts        int     `json:"scale_outs"`
	ScaleIns         int     `json:"scale_ins"`
	Rollbacks        int     `json:"rollbacks"`
	Evacuated        int     `json:"evacuated"`
	ConvergeOutTicks int     `json:"converge_out_ticks"`
	ConvergeInTicks  int     `json:"converge_in_ticks"`
	ConvergeOutUs    float64 `json:"converge_out_us"`
	ConvergeInUs     float64 `json:"converge_in_us"`
	Verified         int     `json:"restores_verified"`
	FinalActive      int     `json:"final_active"`
}

// AutoscaleSweep runs the scale-storm matrix over link fault rates
// (store fault rates ride along at rate/5, like the placement sweep);
// every cell ramps 2→peak→2 with the dead-spare and mid-scale-in
// chaos legs enabled.
func AutoscaleSweep(peakGroups int, rates []float64, seed int64) ([]AutoscalePoint, error) {
	var out []AutoscalePoint
	for _, rate := range rates {
		cfg := AutoscaleChaosConfig{
			Seed:          seed,
			PeakGroups:    peakGroups,
			LinkDrop:      rate,
			LinkDup:       rate / 2,
			LinkCorrupt:   rate / 2,
			StoreWriteErr: rate / 5,
			StoreReadErr:  rate / 5,
		}
		rep, err := AutoscaleChaosRun(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: autoscale sweep rate=%g: %w", rate, err)
		}
		out = append(out, AutoscalePoint{
			LinkFaultPct:     rate * 100,
			PeakGroups:       rep.PeakGroups,
			ScaledTo:         rep.ScaledTo,
			ScaleOuts:        rep.ScaleOuts,
			ScaleIns:         rep.ScaleIns,
			Rollbacks:        rep.Rollbacks,
			Evacuated:        rep.Evacuated,
			ConvergeOutTicks: rep.ConvergeOutTicks,
			ConvergeInTicks:  rep.ConvergeInTicks,
			ConvergeOutUs:    float64(rep.ConvergeOutTime.Microseconds()),
			ConvergeInUs:     float64(rep.ConvergeInTime.Microseconds()),
			Verified:         rep.RestoresVerified,
			FinalActive:      rep.FinalActive,
		})
	}
	return out, nil
}
