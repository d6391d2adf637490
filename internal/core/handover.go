package core

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file implements the handover: the one path that moves a
// lineage's primary role onto a target store. Promote, PromoteBackend,
// Migrator.Cutover and Migrator.PromoteStandby run its steps in order:
//
//	elect     the candidate with the highest contiguous floor wins;
//	          equal floors go to the first candidate
//	mint      one above every witnessed fence and generation
//	fence     every candidate adopts the minted generation
//	backfill  epochs up to the floor are copied into the target store
//	restore   the floor image is restored and the target store attached
//	claim     the target store claims the role and persists the claim:
//	          the commit point
//
// Callers keep the decisions only they make: Promote quarantines the
// divergent epochs and read-repairs lagging members; the Migrator owns
// the blackout, announces the fence in-band and re-mints the source
// when a handover aborts; PromoteBackend runs mint and claim alone.

var errNoTargetStore = errors.New("core: handover needs a target store")

// handover is one primary-role move onto dst, driven step by step.
type handover struct {
	o       *Orchestrator // the machine the role moves to
	dst     *StoreBackend // the store that claims the role
	lineage uint64        // key primary claims live under
	stream  uint64        // key images and replica fences travel under
	cands   []ReplicaSource
	retry   func(op func() error) error // the caller's retry policy for backfill and claim

	elected    int      // index of the elected candidate
	floor      uint64   // its contiguous floor: the new durable line
	gen        uint64   // the minted generation
	backfilled int      // epochs copied into dst
	divergent  []uint64 // the elected candidate's epochs beyond floor
	g          *Group   // the group restore created
}

// elect rejects a handover with no target store and chooses the
// candidate the role moves from.
func (h *handover) elect() error {
	if h.dst == nil {
		return errNoTargetStore
	}
	if h.elected, h.floor = electFloor(h.cands, h.stream); h.floor == 0 {
		return fmt.Errorf("core: no candidate holds a contiguous epoch of stream %d: %w", h.stream, ErrNoImage)
	}
	return nil
}

// once is the retry policy of callers that do not retry: op runs once.
func once(op func() error) error { return op() }

// electFloor returns the index of the candidate with the highest
// contiguous floor on stream and that floor (-1 with no candidates).
// Equal floors go to the first candidate: the caller's order is the
// tie-break.
func electFloor(cands []ReplicaSource, stream uint64) (int, uint64) {
	best, floor := -1, uint64(0)
	for i, c := range cands {
		if f := c.ContiguousEpoch(stream); best < 0 || f > floor {
			best, floor = i, f
		}
	}
	return best, floor
}

// mint sets the generation one above every witness: gens, each
// candidate's fence on the stream key, and the fences of dst and
// stores on both keys.
func (h *handover) mint(gens []uint64, stores ...*StoreBackend) uint64 {
	top := slices.Max(append(gens, 0))
	for _, c := range h.cands {
		top = max(top, c.FenceGen(h.stream))
	}
	for _, sb := range append(stores, h.dst) {
		if sb != nil {
			top = max(top, sb.Store().FenceGen(h.stream), sb.Store().FenceGen(h.lineage))
		}
	}
	h.gen = top + 1
	return h.gen
}

// fence raises every candidate's fence to the minted generation, so a
// stale primary is rejected whichever replica it reaches.
func (h *handover) fence() {
	for _, c := range h.cands {
		c.AdoptFence(h.stream, h.gen)
	}
}

// backfill copies the elected candidate's epochs up to the floor that
// dst lacks into dst in epoch order, and records those beyond the
// floor as divergent. It runs before the claim raises dst's fence: the
// images keep their original generations, which dst adopts as it goes.
func (h *handover) backfill() error {
	src := h.cands[h.elected]
	var lack []uint64
	lack, h.divergent = missing(src.ReplicaEpochs(h.stream), h.dst.Epochs(h.stream), h.floor)
	for _, ep := range lack {
		if err := h.retry(func() error {
			img, err := src.ImageAt(h.stream, ep)
			if err == nil {
				_, err = h.dst.Flush(img)
			}
			return err
		}); err != nil {
			return err
		}
		h.backfilled++
	}
	return nil
}

// missing splits the ascending epochs from into those up to floor that
// have lacks and those beyond floor.
func missing(from, have []uint64, floor uint64) (lack, beyond []uint64) {
	held := make(map[uint64]bool, len(have))
	for _, ep := range have {
		held[ep] = true
	}
	for _, ep := range from {
		if ep > floor {
			beyond = append(beyond, ep)
		} else if !held[ep] {
			lack = append(lack, ep)
		}
	}
	return lack, beyond
}

// restore restores the image load returns under retry, attaches dst
// to the new group and wires peers in as demand-paging fallbacks.
func (h *handover) restore(retry func(func() error) error, load func() (*Image, time.Duration, error), opts RestoreOpts, peers []BlockProvider) error {
	return retry(func() error {
		img, readTime, err := load()
		if err != nil {
			return err
		}
		for _, p := range peers {
			img.AddBlockPeer(p)
		}
		if h.g, _, err = h.o.RestoreImage(img, readTime, opts); err != nil {
			return err
		}
		h.o.Attach(h.g, h.dst)
		for _, p := range peers {
			h.o.AddRestorePeer(h.g, p)
		}
		return nil
	})
}

// claim is the commit point: dst claims the role at the minted
// generation and persists it, and g runs at that generation. A failed
// claim renounces what did not persist and retires the restored group.
func (h *handover) claim(g *Group) error {
	if err := h.retry(func() error { return h.o.claimPrimary(h.dst, h.lineage, h.gen) }); err != nil {
		_ = h.dst.Store().Handoff(h.lineage, h.gen)
		if h.g != nil {
			h.o.retire(h.g)
		}
		return err
	}
	g.remint(h.gen)
	return nil
}

// claimPrimary makes sb claim lineage's primary role at gen and
// persists the claim through the superblock.
func (o *Orchestrator) claimPrimary(sb *StoreBackend, lineage, gen uint64) error {
	if err := sb.Store().SetPrimary(lineage, gen); err != nil {
		return err
	}
	return o.syncWithReclaim(sb)
}

// retire exits and reaps g's members and unpersists the group.
func (o *Orchestrator) retire(g *Group) {
	for _, p := range o.members(g) {
		o.K.Exit(p, 0)
		_ = o.K.Reap(p)
	}
	o.Unpersist(g)
}
