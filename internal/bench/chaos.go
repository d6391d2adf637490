package bench

import (
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/netback"
	"aurora/internal/objstore"
)

// This file is the whole-system chaos harness: one seeded scheduler
// composing storage faults (FaultDevice under the primary store), link
// faults (FaultLink under the replication channel), process crashes
// with supervisor restarts, a transient partition with heal and
// catch-up, and a full primary failure with replica promotion followed
// by the stale primary's return. After every event it re-checks the
// system's core invariants:
//
//   - the durable epoch never regresses within a group lifetime;
//   - every restore and promotion is bit-identical to what was
//     checkpointed at that epoch;
//   - externally released output (epochs below the replication
//     frontier) is never lost by any restore or promotion;
//   - exactly one store holds the primary claim at the maximum
//     generation for the active lineage, and after demotion exactly
//     one claim remains at all.

// chaosPages is the patterned working set carried through every crash,
// restore, and promotion (beyond the counter page).
const chaosPages = 16

// ChaosConfig parameterizes one chaos run. Zero values pick defaults.
type ChaosConfig struct {
	Seed int64

	// Checkpoints is the number of epochs in the steady-state phase
	// (before the permanent partition).
	Checkpoints int
	// StepsPerEpoch is the kernel steps run between checkpoints.
	StepsPerEpoch int

	// Per-frame link fault probabilities (see LinkFaultConfig).
	LinkDrop    float64
	LinkDup     float64
	LinkReorder float64
	LinkCorrupt float64

	// Per-op fault probabilities on the primary store device.
	StoreWriteErr float64
	StoreReadErr  float64

	// CrashEvery kills the group every Nth steady-state checkpoint and
	// lets the supervisor restore it (0 = never).
	CrashEvery int
	// PartitionAt/PartitionLen script a transient symmetric partition
	// during the steady state: it starts after checkpoint PartitionAt
	// and heals PartitionLen checkpoints later (PartitionAt 0 = none).
	PartitionAt  int
	PartitionLen int

	// DivergentEpochs is how many epochs the primary checkpoints into
	// the permanent partition — the divergent suffix the stale primary
	// accumulates before the replica is promoted over it.
	DivergentEpochs int
	// PostEpochs is how many epochs the promoted primary runs after
	// the failover.
	PostEpochs int

	// StoreCapacityEpochs bounds the primary store's device to roughly
	// this many steady-state epochs of room (0 = unbounded), measured by
	// a clean sizing probe, and composes the space scheduler — retention
	// reclaimer, ENOSPC emergency reclamation, checkpoint admission —
	// into the fault mix. The reachability audit runs after every
	// reclaimed epoch. Leave margin above KeepLast: epochs above the
	// replica's contiguous-ack floor are unreclaimable, so a partition
	// pins everything minted while it lasts.
	StoreCapacityEpochs int
	// KeepLast is the bounded store's retention floor (0 = default).
	KeepLast int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Checkpoints == 0 {
		c.Checkpoints = 24
	}
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 3
	}
	if c.DivergentEpochs == 0 {
		c.DivergentEpochs = 4
	}
	if c.PostEpochs == 0 {
		c.PostEpochs = 6
	}
	if c.PartitionLen == 0 {
		c.PartitionLen = 3
	}
	return c
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Seed        int64
	Checkpoints int // checkpoints attempted across all phases

	Crashes  int // processes killed
	Restores int // supervisor restores (each verified bit-identical)
	Heals    int // transient partitions healed and caught up

	Partitions    int64 // connection losses observed by the replica backend
	LinkDropped   int64 // frames lost on the link (injected + partition)
	LinkInjected  int64 // link faults injected by probability or script
	StoreInjected int64 // device faults injected on the primary store

	StaleRejected int // fencing rejections observed after the stale return
	Quarantined   int // divergent epochs quarantined at demotion

	PromoteGen uint64        // generation minted by the promotion
	Floor      uint64        // contiguous floor that became the durable line
	Backfilled int           // epochs copied into the new primary store
	PromoteTTR time.Duration // virtual time for the promotion
	CatchUp    time.Duration // virtual time to drain catch-up after the heal

	PerCheckpoint time.Duration // mean virtual time per steady-state checkpoint
	Released      uint64        // released watermark on the promoted line at exit

	StoreCapacity   int64 // primary device capacity in bytes (0 = unbounded)
	EpochsReclaimed int64 // epochs retention GC merged forward on the primary
	EmergencyScans  int64 // ENOSPC-triggered reclamations survived
}

// chaosRun carries the harness state across phases.
type chaosRun struct {
	cfg ChaosConfig
	rep *ChaosReport

	src *Node // the primary machine: faulty store, supervisor, replica link
	sup *core.Supervisor
	dst *Node // the standby machine: the replica receiver, promoted later
	w   *Wire // src's replica wire to dst

	g *core.Group // the group currently running on src

	counterAt   counterLog    // counter value captured by each epoch
	srcDurable  durableLedger // per-group durable high-water on src
	dstDurable  durableLedger // ... and on the promoted dst
	maxReleased uint64        // highest epoch whose output was ever released
}

// resetLink tears the replication connection down and re-handshakes it.
func (c *chaosRun) resetLink() error {
	if err := c.w.reset(c.g.ID); err != nil {
		return fmt.Errorf("bench: chaos seed %d: replica link did not recover: %w", c.cfg.Seed, err)
	}
	return nil
}

// syncDurable advances the durable frontier to the group's barrier
// epoch; replica catch-up is handled (or deliberately deferred) by the
// caller.
func (c *chaosRun) syncDurable() error {
	if err := syncDurable(c.src.o, c.g); err != nil {
		return fmt.Errorf("bench: chaos seed %d: %w", c.cfg.Seed, err)
	}
	return nil
}

// heal drives every sick backend of the current group back to healthy.
func (c *chaosRun) heal() error {
	if err := heal(c.src.o, c.g, c.w, func() bool {
		for _, hi := range c.g.Health() {
			if hi.State != core.BackendHealthy || hi.Pending > 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("bench: chaos seed %d: %w", c.cfg.Seed, err)
	}
	return nil
}

// invariants re-checks the standing invariants on the source line.
func (c *chaosRun) invariants(where string) error {
	if err := c.srcDurable.observe(c.g.ID, c.g.Durable()); err != nil {
		return fmt.Errorf("bench: chaos %s: %w", where, err)
	}
	for c.src.o.Released(c.g.ID, c.maxReleased+1) {
		c.maxReleased++
	}
	if hi, ok := c.w.health(c.g); ok && hi.State == core.BackendDown {
		return fmt.Errorf("bench: chaos %s: partitioned replica marked down (must cap at degraded)", where)
	}
	return c.checkPrimaries(c.g.ID, where)
}

// checkPrimaries asserts the fencing invariant for the lineage across
// both machines' stores.
func (c *chaosRun) checkPrimaries(lineage uint64, where string) error {
	if err := solePrimary(lineage, c.src, c.dst); err != nil {
		return fmt.Errorf("bench: chaos %s: %w", where, err)
	}
	return nil
}

// verifyState checks a restored or promoted group on m bit-for-bit
// against what was checkpointed at the given epoch.
func (c *chaosRun) verifyState(m *Node, g *core.Group, epoch uint64, where string) error {
	if err := c.counterAt.verify(m.k, g, epoch, chaosPages, c.cfg.Seed); err != nil {
		return fmt.Errorf("bench: chaos %s: %w", where, err)
	}
	return nil
}

// syncStore syncs a store with bounded retries: the fault device can
// inject a write error into the superblock persist itself, and a
// retried sync draws fresh rolls.
func syncStore(st *objstore.Store) error {
	var err error
	for try := 0; try < 8; try++ {
		if err = st.Sync(); err == nil {
			return nil
		}
	}
	return err
}

// crash kills every member of the group with a nonzero exit and lets
// the supervisor restore it, then verifies the restored state
// bit-identical, re-claims the primary role for the fresh lineage, and
// re-handshakes the replica (whose chain for the new lineage starts
// with the automatic full checkpoint).
func (c *chaosRun) crash() error {
	for _, pid := range c.g.PIDs() {
		if p, err := c.src.k.Process(pid); err == nil {
			c.src.k.Exit(p, 1)
		}
	}
	c.rep.Crashes++
	oldLineage := c.g.ID
	// A restore attempt can itself hit an injected store read fault;
	// the crash persists, so another poll retries it (with backoff
	// charged to the virtual clock).
	var ev *core.SupervisorEvent
	var lastErr error
	for try := 0; try < 10 && ev == nil; try++ {
		evs := c.sup.Poll()
		for i := range evs {
			if evs[i].Group != oldLineage {
				continue
			}
			if evs[i].GaveUp {
				return fmt.Errorf("bench: chaos seed %d: supervisor gave up on group %d", c.cfg.Seed, oldLineage)
			}
			if evs[i].Err != nil {
				lastErr = evs[i].Err
			}
			if evs[i].NewGroup != 0 {
				ev = &evs[i]
			}
		}
	}
	if ev == nil {
		return fmt.Errorf("bench: chaos seed %d: supervisor did not restore group %d: %v", c.cfg.Seed, oldLineage, lastErr)
	}
	ng, err := c.src.o.Group(ev.NewGroup)
	if err != nil {
		return fmt.Errorf("bench: chaos seed %d: restored group: %w", c.cfg.Seed, err)
	}
	// Released output must survive the restore. Normally the restored
	// epoch sits at or above the release watermark; if a store read
	// fault made the self-healing restore quarantine an epoch and fall
	// back below it, the released suffix is still not lost — releases
	// gate on replication, so the replica must hold it contiguously.
	if ng.Epoch() < c.maxReleased+1 && c.w.recv.ContiguousEpoch(oldLineage) < c.maxReleased+1 {
		return fmt.Errorf("bench: chaos seed %d: restore at epoch %d loses released output (watermark %d, replica floor %d)",
			c.cfg.Seed, ng.Epoch(), c.maxReleased, c.w.recv.ContiguousEpoch(oldLineage))
	}
	if err := c.verifyState(c.src, ng, ng.Epoch(), "supervisor restore"); err != nil {
		return err
	}
	// The restarted primary re-claims its role for the new lineage.
	if err := c.src.sb.Store().SetPrimary(ng.ID, ng.Generation()); err != nil {
		return fmt.Errorf("bench: chaos seed %d: reclaiming primary: %w", c.cfg.Seed, err)
	}
	if err := syncStore(c.src.sb.Store()); err != nil {
		return fmt.Errorf("bench: chaos seed %d: persisting primary claim: %w", c.cfg.Seed, err)
	}
	c.g = ng
	c.rep.Restores++
	c.srcDurable[ng.ID] = ng.Durable()
	return c.resetLink()
}

// epoch runs one workload slice and checkpoints it, recording the
// counter value the epoch captured. Under space pressure admission
// control may shed the barrier (no epoch minted, no state captured);
// the workload keeps running and the next barrier coalesces the slices.
func (c *chaosRun) epoch() (uint64, error) {
	var counter uint64
	slice := func() (err error) {
		if _, err = c.src.k.Run(c.cfg.StepsPerEpoch); err != nil {
			return err
		}
		counter, err = readCounter(c.src.k, c.g)
		return err
	}
	if err := slice(); err != nil {
		return 0, err
	}
	if err := admitCheckpoint(c.src.o, c.g, slice); err != nil {
		return 0, err
	}
	ep := c.g.Epoch()
	c.counterAt[ep] = counter
	return ep, nil
}

// ChaosRun executes one full chaos schedule: steady state with
// composed storage/link faults, crashes, and a transient partition;
// then a permanent partition with divergent epochs; a replica
// promotion on the standby machine; a run on the promoted primary; and
// finally the stale primary's return, fencing, and demotion.
func ChaosRun(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	var capacity int64
	if cfg.StoreCapacityEpochs > 0 {
		first, perEpoch, err := chaosFootprint(cfg.Seed, cfg.StepsPerEpoch)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: sizing probe: %w", cfg.Seed, err)
		}
		capacity = first + perEpoch*int64(cfg.StoreCapacityEpochs)
	}
	tp := NewTopology(netback.LinkFaultConfig{
		Drop:    cfg.LinkDrop,
		Dup:     cfg.LinkDup,
		Reorder: cfg.LinkReorder,
		Corrupt: cfg.LinkCorrupt,
	})
	src := NewNode("src", cfg.Seed, cfg.StoreWriteErr, cfg.StoreReadErr, capacity)
	dst := NewNode("dst", cfg.Seed, 0, 0, 0)
	c := &chaosRun{
		cfg:        cfg,
		rep:        &ChaosReport{Seed: cfg.Seed},
		src:        src,
		sup:        core.NewSupervisor(src.o, core.SupervisorConfig{MaxRestarts: 64}),
		dst:        dst,
		w:          tp.Wire(cfg.Seed, src, dst),
		counterAt:  make(counterLog),
		srcDurable: make(durableLedger),
		dstDurable: make(durableLedger),
	}
	if capacity > 0 {
		rec := core.NewReclaimer(src.o, src.sb, core.RetentionPolicy{KeepLast: cfg.KeepLast}, core.Watermarks{})
		rec.Audit = (*objstore.Store).AuditReachability
		src.sb.SetReclaimer(rec)
	}

	g, err := spawnCounter(src.o, "chaos-app", chaosPages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c.g = g
	src.o.Attach(g, src.sb)
	src.o.Attach(g, c.w.rb)
	if err := src.sb.Store().SetPrimary(g.ID, g.Generation()); err != nil {
		return nil, err
	}
	if err := syncStore(src.sb.Store()); err != nil {
		return nil, err
	}
	c.sup.Watch(g)
	if err := c.resetLink(); err != nil {
		return nil, err
	}

	// Phase 1 — steady state under composed faults.
	partActive := false
	t0 := c.src.clock.Now()
	for i := 1; i <= cfg.Checkpoints; i++ {
		if cfg.PartitionAt > 0 && i == cfg.PartitionAt {
			c.w.link.PartitionBoth()
			partActive = true
		}
		if _, err := c.epoch(); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: checkpoint %d: %w", cfg.Seed, i, err)
		}
		if err := c.syncDurable(); err != nil {
			return nil, err
		}
		if !partActive {
			// Keep the replica converging between events so the durable
			// and replication frontiers both advance through the run.
			if hi, ok := c.w.health(c.g); ok && (hi.State != core.BackendHealthy || hi.Pending > 0) {
				if err := c.heal(); err != nil {
					return nil, err
				}
			}
		}
		if err := c.invariants(fmt.Sprintf("steady checkpoint %d", i)); err != nil {
			return nil, err
		}
		if partActive && i == cfg.PartitionAt+cfg.PartitionLen {
			// Heal the transient partition and measure catch-up: the
			// missed epochs drain and the replica floor rejoins durable.
			h0 := c.src.clock.Now()
			partActive = false
			if err := c.heal(); err != nil {
				return nil, err
			}
			if got, want := c.w.recv.ContiguousEpoch(c.g.ID), c.g.Durable(); got != want {
				return nil, fmt.Errorf("bench: chaos seed %d: after heal replica floor %d != durable %d", cfg.Seed, got, want)
			}
			c.rep.CatchUp = c.src.clock.Now() - h0
			c.rep.Heals++
		}
		if !partActive && cfg.CrashEvery > 0 && i%cfg.CrashEvery == 0 {
			if err := c.crash(); err != nil {
				return nil, err
			}
		}
	}
	c.rep.Checkpoints = cfg.Checkpoints
	c.rep.PerCheckpoint = (c.src.clock.Now() - t0) / time.Duration(cfg.Checkpoints)

	// Quiesce before the disaster so the replica floor equals the
	// durable line — the promotion must lose exactly the divergent
	// suffix, nothing else. A crash on the final steady-state
	// checkpoint leaves a fresh lineage whose first checkpoint has not
	// happened yet (empty replica chain), so mint one stabilization
	// epoch on the current lineage first.
	if _, err := c.epoch(); err != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: stabilization checkpoint: %w", cfg.Seed, err)
	}
	if err := c.syncDurable(); err != nil {
		return nil, err
	}
	c.rep.Checkpoints++
	if err := c.heal(); err != nil {
		return nil, err
	}
	lineage := c.g.ID
	preFloor := c.g.Durable()
	if got := c.w.recv.ContiguousEpoch(lineage); got != preFloor {
		return nil, fmt.Errorf("bench: chaos seed %d: pre-disaster floor %d != durable %d", cfg.Seed, got, preFloor)
	}

	// Phase 2 — the permanent partition: the primary keeps running,
	// minting epochs only its own store ever sees. Releases must stop
	// at the replication frontier.
	c.w.link.PartitionBoth()
	for j := 1; j <= cfg.DivergentEpochs; j++ {
		ep, err := c.epoch()
		if err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: divergent checkpoint %d: %w", cfg.Seed, j, err)
		}
		if err := c.syncDurable(); err != nil {
			return nil, err
		}
		if c.src.o.Released(c.g.ID, ep-1) {
			return nil, fmt.Errorf("bench: chaos seed %d: output of divergent epoch %d released past the partition", cfg.Seed, ep-1)
		}
		if err := c.invariants(fmt.Sprintf("divergent checkpoint %d", j)); err != nil {
			return nil, err
		}
		c.rep.Checkpoints++
	}

	// Phase 3 — the primary is declared permanently dead; the standby
	// promotes the replica over its own, so far empty, store.
	prep, err := dst.o.Promote([]core.ReplicaSource{c.w.recv}, lineage, dst.sb, core.RestoreOpts{})
	if err != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: promotion: %w", cfg.Seed, err)
	}
	if prep.Floor != preFloor {
		return nil, fmt.Errorf("bench: chaos seed %d: promotion floor %d, want %d", cfg.Seed, prep.Floor, preFloor)
	}
	if prep.Floor < c.maxReleased+1 {
		return nil, fmt.Errorf("bench: chaos seed %d: promotion floor %d loses released output (watermark %d)",
			cfg.Seed, prep.Floor, c.maxReleased)
	}
	pg := prep.Group
	if err := c.verifyState(c.dst, pg, prep.Floor, "promotion"); err != nil {
		return nil, err
	}
	// The promoted group continues as a fresh lineage on dst: claim the
	// primary role for it too.
	if err := c.dst.sb.Store().SetPrimary(pg.ID, prep.Gen); err != nil {
		return nil, err
	}
	if err := c.dst.sb.Store().Sync(); err != nil {
		return nil, err
	}
	if err := c.checkPrimaries(lineage, "after promotion"); err != nil {
		return nil, err
	}
	c.rep.PromoteGen = prep.Gen
	c.rep.Floor = prep.Floor
	c.rep.Backfilled = prep.Backfilled
	c.rep.PromoteTTR = prep.TTR

	// Phase 3b — life goes on, on the promoted primary.
	for j := 1; j <= cfg.PostEpochs; j++ {
		if _, err := dst.k.Run(cfg.StepsPerEpoch); err != nil {
			return nil, err
		}
		counter, err := readCounter(dst.k, pg)
		if err != nil {
			return nil, err
		}
		if _, err := dst.o.Checkpoint(pg, core.CheckpointOpts{}); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: promoted checkpoint %d: %w", cfg.Seed, j, err)
		}
		if err := dst.o.Sync(pg); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: promoted sync %d: %w", cfg.Seed, j, err)
		}
		c.counterAt[pg.Epoch()] = counter
		if err := c.dstDurable.observe(pg.ID, pg.Durable()); err != nil {
			return nil, fmt.Errorf("bench: chaos seed %d: promoted %w", cfg.Seed, err)
		}
		for dst.o.Released(pg.ID, c.maxReleased+1) {
			c.maxReleased++
		}
		if err := c.checkPrimaries(lineage, "promoted epoch"); err != nil {
			return nil, err
		}
		c.rep.Checkpoints++
	}

	// Phase 4 — the stale primary comes back. Its next flush over the
	// healed link is rejected by the replica's fence, which marks the
	// group fenced; the following checkpoint barrier refuses outright,
	// and demotion quarantines the divergent suffix durably.
	if err := c.resetLink(); err != nil {
		return nil, err
	}
	if _, err := c.epoch(); err != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: stale-return checkpoint: %w", cfg.Seed, err)
	}
	c.rep.Checkpoints++
	// The sync's store half succeeds (the stale store still accepts its
	// own generation); the replica half runs into the fence. The link
	// is still faulty, so a drop or corruption can eat the fence reply
	// itself (a connection loss, not a rejection) — reconnect and sync
	// again until the fence actually lands.
	var syncErr error
	for try := 0; try < 12; try++ {
		syncErr = c.src.o.Sync(c.g)
		if _, _, fenced := c.g.Fenced(); fenced {
			break
		}
		if err := c.resetLink(); err != nil {
			return nil, err
		}
	}
	fencedGen, _, fenced := c.g.Fenced()
	if !fenced {
		return nil, fmt.Errorf("bench: chaos seed %d: stale primary was not fenced on return: %v", cfg.Seed, syncErr)
	}
	if syncErr != nil && !errors.Is(syncErr, core.ErrStaleGeneration) &&
		!errors.Is(syncErr, core.ErrBackendDown) && !errors.Is(syncErr, netback.ErrDisconnected) {
		return nil, fmt.Errorf("bench: chaos seed %d: stale-return sync: %w", cfg.Seed, syncErr)
	}
	if fencedGen != prep.Gen {
		return nil, fmt.Errorf("bench: chaos seed %d: fenced by generation %d, want %d", cfg.Seed, fencedGen, prep.Gen)
	}
	c.rep.StaleRejected++ // the catch-up flush the fence bounced
	if _, err := c.src.k.Run(cfg.StepsPerEpoch); err != nil {
		return nil, err
	}
	if _, err := c.src.o.Checkpoint(c.g, core.CheckpointOpts{}); !errors.Is(err, core.ErrStaleGeneration) {
		return nil, fmt.Errorf("bench: chaos seed %d: fenced checkpoint error = %v, want ErrStaleGeneration", cfg.Seed, err)
	}
	c.rep.StaleRejected++ // the refused barrier
	// Demotion persists the adopted fence; a retried round draws fresh
	// fault rolls if the persist itself was injected.
	quarantinedSet := make(map[uint64]bool)
	var demoteErr error
	for try := 0; try < 5; try++ {
		q, err := c.src.o.DemoteStale(c.g)
		for _, ep := range q {
			quarantinedSet[ep] = true
		}
		demoteErr = err
		if err == nil {
			break
		}
	}
	if demoteErr != nil {
		return nil, fmt.Errorf("bench: chaos seed %d: demoting stale primary: %w", cfg.Seed, demoteErr)
	}
	c.rep.Quarantined = len(quarantinedSet)
	if c.rep.Quarantined < cfg.DivergentEpochs {
		return nil, fmt.Errorf("bench: chaos seed %d: %d epochs quarantined, want >= %d divergent",
			cfg.Seed, c.rep.Quarantined, cfg.DivergentEpochs)
	}
	if got := c.src.sb.Store().FenceGen(lineage); got != prep.Gen {
		return nil, fmt.Errorf("bench: chaos seed %d: demoted store fence %d, want %d", cfg.Seed, got, prep.Gen)
	}
	if _, primary := c.src.sb.Store().PrimaryGen(lineage); primary {
		return nil, fmt.Errorf("bench: chaos seed %d: demoted store still claims primary for lineage %d", cfg.Seed, lineage)
	}
	if err := c.checkPrimaries(lineage, "after demotion"); err != nil {
		return nil, err
	}

	// Final bit-identity check on the promoted line.
	if err := c.verifyState(c.dst, pg, pg.Epoch(), "final"); err != nil {
		return nil, err
	}

	c.rep.Partitions = c.w.rb.Partitions()
	c.rep.LinkDropped = c.w.link.DroppedCount()
	c.rep.LinkInjected = c.w.link.InjectedCount()
	c.rep.StoreInjected = c.src.fd.InjectedCount()
	c.rep.Released = c.maxReleased
	if rec := c.src.sb.Reclaimer(); rec != nil {
		_, c.rep.StoreCapacity, _ = rec.Usage()
		st := rec.Stats()
		c.rep.EpochsReclaimed = st.EpochsReclaimed
		c.rep.EmergencyScans = st.EmergencyScans
		if st.LastAuditErr != "" {
			return nil, fmt.Errorf("bench: chaos seed %d: reachability audit failed during reclamation: %s",
				cfg.Seed, st.LastAuditErr)
		}
	}
	return c.rep, nil
}

// chaosFootprint measures the chaos workload's storage footprint on an
// unbounded, fault-free machine: the residency after the first durable
// epoch (superblock + full image) and the steady-state growth per
// incremental epoch. ChaosRun uses it to size a bounded device in
// epochs instead of guessing bytes.
func chaosFootprint(seed int64, steps int) (first, perEpoch int64, err error) {
	m := NewNode("chaos-probe", seed, 0, 0, 0)
	k, o, sb := m.k, m.o, m.sb
	g, err := spawnCounter(o, "chaos-probe", chaosPages, seed)
	if err != nil {
		return 0, 0, err
	}
	o.Attach(g, sb)

	const probeEpochs = 8
	for i := 1; i <= probeEpochs; i++ {
		if _, err := k.Run(steps); err != nil {
			return 0, 0, err
		}
		if _, err := o.Checkpoint(g, core.CheckpointOpts{}); err != nil {
			return 0, 0, err
		}
		if err := o.Sync(g); err != nil {
			return 0, 0, err
		}
		used, _, _ := sb.Store().Usage()
		if i == 1 {
			first = used
		} else if i == probeEpochs {
			perEpoch = (used - first) / int64(probeEpochs-1)
		}
	}
	if perEpoch <= 0 {
		perEpoch = 1
	}
	// Budget the control-plane reserve (superblock slots + two index
	// generations) on top of the measured data footprint: it is held
	// back from data allocations and, with sub-block metadata packing,
	// no longer disappears inside the per-epoch growth. The run's index
	// outgrows the probe's (longer history, catch-up pinning), so give
	// it double the probe's reserve.
	first += 2 * sb.Store().ControlOverhead()
	return first, perEpoch, nil
}
