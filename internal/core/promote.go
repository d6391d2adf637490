package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"aurora/internal/objstore"
)

// This file implements replica promotion: turning a replica into the
// primary store when the primary is declared permanently dead, through
// the handover (handover.go). A returning stale primary, still stamping
// the old generation, has every flush rejected (ErrStaleGeneration),
// is marked fenced, refuses further checkpoints, and is demoted to
// catch-up resync with its divergent epochs quarantined.

// ErrStaleGeneration is the fencing rejection: a flush stamped with a
// store generation behind the lineage's fence. It is the same value
// objstore returns, so one errors.Is identity works end to end.
var ErrStaleGeneration = objstore.ErrStaleGeneration

// ErrPrimaryHealthy refuses a promotion while the current primary is
// not down: promoting over a live primary is how split-brain starts.
var ErrPrimaryHealthy = errors.New("core: current primary still healthy")

// FenceError decorates a fencing rejection with the fence generation
// that rejected the flush and the rejecting side's contiguous floor
// (the durable line of the new primary at fencing time). It wraps
// ErrStaleGeneration.
type FenceError struct {
	Gen   uint64 // the fence generation that rejected the flush
	Floor uint64 // the rejecting side's contiguous/latest epoch
	Err   error
}

func (e *FenceError) Error() string {
	return fmt.Sprintf("fenced by generation %d (floor epoch %d): %v", e.Gen, e.Floor, e.Err)
}

func (e *FenceError) Unwrap() error { return e.Err }

// noteFence inspects a flush error; if it is a fencing rejection the
// group is marked fenced and true is returned. Must not be called
// with healthMu held (markFenced takes g.mu).
func noteFence(g *Group, err error) bool {
	if err == nil || !errors.Is(err, ErrStaleGeneration) {
		return false
	}
	var fe *FenceError
	if errors.As(err, &fe) {
		g.markFenced(fe.Gen, fe.Floor)
	} else {
		g.markFenced(g.Generation()+1, 0)
	}
	return true
}

// ReplicaSource is the view of a replica that promotion consumes:
// netback.Receiver implements it.
type ReplicaSource interface {
	// ImageAt returns the replica's image for (group, epoch), linked
	// into its chain.
	ImageAt(group, epoch uint64) (*Image, error)
	// ContiguousEpoch is the newest epoch with no holes below it —
	// the replica's durable line.
	ContiguousEpoch(group uint64) uint64
	// ReplicaEpochs lists every epoch held, ascending.
	ReplicaEpochs(group uint64) []uint64
	// FenceGen is the highest store generation witnessed in deltas or
	// adopted fences for the group.
	FenceGen(group uint64) uint64
	// AdoptFence raises the replica-side fence: deltas stamped with an
	// older generation are answered with a fencing rejection.
	AdoptFence(group, gen uint64)
}

// ReplicaRepairTarget is an optional interface of ReplicaSource:
// replicas that accept read-repair adopt images they missed (a
// minority that lost epochs to a kill or partition is backfilled from
// the elected member after a quorum promotion). netback.Receiver
// implements it.
type ReplicaRepairTarget interface {
	// AdoptImage links an image into the replica's chain as if it had
	// been shipped over the wire.
	AdoptImage(img *Image)
}

// PromoteReport summarizes a promotion.
type PromoteReport struct {
	Group       *Group        // the promoted group (nil for PromoteBackend's in-place role move)
	Gen         uint64        // the new primary generation
	Floor       uint64        // the contiguous floor that became the durable line
	Quarantined []uint64      // divergent epochs beyond the floor
	Backfilled  int           // epochs copied into the new primary store
	Elected     int           // index of the elected replica
	Repaired    int           // epochs read-repaired onto lagging replicas
	TTR         time.Duration // modeled time to recovery (virtual clock)
}

// Promote turns a replica set into the primary store for a lineage
// (a single replica is a set of one): the handover onto primary
// restores the elected member's floor image as a new group. Promote
// keeps two decisions of its own: the elected member's epochs beyond
// the floor are quarantined as divergent, and lagging members are
// read-repaired with the epochs up to the floor they lack, so a later
// restore from any member is bit-identical.
func (o *Orchestrator) Promote(srcs []ReplicaSource, lineage uint64, primary *StoreBackend, opts RestoreOpts) (*PromoteReport, error) {
	start := o.K.Clock.Now()
	fail := func(err error) (*PromoteReport, error) {
		return nil, fmt.Errorf("core: promoting lineage %d: %w", lineage, err)
	}
	h := &handover{o: o, dst: primary, lineage: lineage, stream: lineage, cands: srcs, retry: once}
	if err := h.elect(); err != nil {
		return fail(err)
	}
	h.mint(nil)
	h.fence()
	if err := h.backfill(); err != nil {
		return fail(fmt.Errorf("backfilling: %w", err))
	}
	src := srcs[h.elected]
	if err := h.restore(once, func() (*Image, time.Duration, error) {
		img, err := src.ImageAt(lineage, h.floor)
		return img, 0, err
	}, opts, nil); err != nil {
		return fail(fmt.Errorf("restoring floor epoch %d: %w", h.floor, err))
	}
	for _, ep := range h.divergent {
		o.quarantineEpoch(h.g, primary, lineage, ep,
			fmt.Errorf("divergent: beyond promotion floor %d at generation %d", h.floor, h.gen))
	}
	if err := h.claim(h.g); err != nil {
		return fail(fmt.Errorf("persisting fence: %w", err))
	}
	rep := &PromoteReport{
		Group:       h.g,
		Gen:         h.gen,
		Floor:       h.floor,
		Quarantined: h.divergent,
		Backfilled:  h.backfilled,
		Elected:     h.elected,
		TTR:         o.K.Clock.Now() - start,
	}
	for i, s := range srcs {
		rt, ok := s.(ReplicaRepairTarget)
		if i == h.elected || !ok {
			continue
		}
		lack, _ := missing(src.ReplicaEpochs(lineage), s.ReplicaEpochs(lineage), h.floor)
		for _, ep := range lack {
			img, err := src.ImageAt(lineage, ep)
			if err != nil {
				return rep, fmt.Errorf("core: promoting lineage %d: read-repair epoch %d: %w", lineage, ep, err)
			}
			rt.AdoptImage(img)
			rep.Repaired++
		}
	}
	return rep, nil
}

// PromoteBackend moves the primary role to another attached store
// backend of a running group (`sls promote`): the in-machine flavor
// of promotion, for when the primary store device is permanently
// dead but the processes survived. Nothing is restored, so only the
// handover's mint and claim run. It refuses with ErrPrimaryHealthy
// unless the current primary is down, and with ErrStaleGeneration if
// the group itself has been fenced by a promotion elsewhere.
func (o *Orchestrator) PromoteBackend(g *Group, name string) (*PromoteReport, error) {
	if gen, _, fenced := g.Fenced(); fenced {
		return nil, fmt.Errorf("core: group %d fenced by generation %d: %w", g.ID, gen, ErrStaleGeneration)
	}
	var target *StoreBackend
	var others []Backend
	for _, b := range g.Backends() {
		if b.Name() == name {
			if sb, ok := b.(*StoreBackend); ok {
				target = sb
			}
			continue
		}
		if !b.Ephemeral() {
			others = append(others, b)
		}
	}
	if target == nil {
		return nil, fmt.Errorf("core: backend %q not attached or not store-backed", name)
	}
	lineage := g.ID
	if len(others) == 0 {
		return nil, fmt.Errorf("core: %q is the only durable backend: %w", name, ErrPrimaryHealthy)
	}
	// The current primary: the store claiming the role, else the
	// first other non-ephemeral backend in attach order. Promotion is
	// only legal once it is down.
	current := others[max(0, slices.IndexFunc(others, func(b Backend) bool {
		sb, ok := b.(*StoreBackend)
		if ok {
			_, ok = sb.Store().PrimaryGen(lineage)
		}
		return ok
	}))]
	health := g.healthOf(current)
	g.healthMu.Lock()
	state := health.state
	g.healthMu.Unlock()
	if state != BackendDown {
		return nil, fmt.Errorf("core: primary %s is %s: %w", current.Name(), state, ErrPrimaryHealthy)
	}

	start := o.K.Clock.Now()
	h := &handover{o: o, dst: target, lineage: lineage, stream: lineage, retry: once}
	h.mint([]uint64{g.Generation()})
	if err := h.claim(g); err != nil {
		return nil, fmt.Errorf("core: promoting %s: %w", name, err)
	}
	return &PromoteReport{
		Gen:   h.gen,
		Floor: g.Durable(),
		TTR:   o.K.Clock.Now() - start,
	}, nil
}

// DemoteStale demotes a fenced stale primary: its divergent epochs —
// those beyond the fence floor, written after the partition on a line
// nobody else acknowledges — are quarantined durably on every
// attached store backend, the newer generation is adopted into those
// stores' fence tables, and the now-undeliverable catch-up queues are
// dropped. The group stays fenced (it cannot checkpoint); its role
// from here is catch-up resync: its stores rejoin the promoted line
// as secondaries and bootstrap from the new primary's next full
// checkpoint. Returns the quarantined epochs.
func (o *Orchestrator) DemoteStale(g *Group) ([]uint64, error) {
	gen, floor, fenced := g.Fenced()
	if !fenced {
		return nil, fmt.Errorf("core: group %d is not fenced", g.ID)
	}
	o.Drain(g)
	seen := make(map[uint64]bool)
	var quarantined []uint64
	for _, b := range g.Backends() {
		sb, ok := b.(*StoreBackend)
		if !ok {
			continue
		}
		for _, ep := range sb.Epochs(g.ID) {
			if ep <= floor {
				continue
			}
			o.quarantineEpoch(g, sb, g.ID, ep,
				fmt.Errorf("divergent: stale primary epoch beyond fence floor %d (generation %d)", floor, gen))
			if !seen[ep] {
				seen[ep] = true
				quarantined = append(quarantined, ep)
			}
		}
		sb.Store().AdoptFence(g.ID, gen)
		if err := o.syncWithReclaim(sb); err != nil {
			return quarantined, fmt.Errorf("core: demoting group %d: persisting fence on %s: %w", g.ID, b.Name(), err)
		}
	}
	// Queued catch-up epochs of the fenced line can never be accepted
	// anywhere; keeping them would retry forever.
	g.healthMu.Lock()
	for _, h := range g.health {
		h.pending = nil
	}
	g.healthMu.Unlock()
	return quarantined, nil
}

// PrimaryClaims returns the stores claiming lineage's primary role at
// the highest claimed generation, and that generation.
func PrimaryClaims(lineage uint64, stores ...*StoreBackend) (max uint64, top []*StoreBackend) {
	for _, sb := range stores {
		if gen, primary := sb.Store().PrimaryGen(lineage); primary && (gen > max || top == nil) {
			max, top = gen, []*StoreBackend{sb}
		} else if primary && gen == max {
			top = append(top, sb)
		}
	}
	return max, top
}
