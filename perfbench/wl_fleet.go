package main

import (
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// fleetClones is the fixed-cost path: many FaaS-sized groups cloned
// from one seeded image on one local store. Each operation dirties 1–2
// pages of the next group (round-robin) with content from a shared
// seeded pool and checkpoints it without waiting for durability; every
// group is synced at the end.
type fleetClones struct {
	seed   int64
	groups int
	pages  int // per group

	gen   *pageGen
	m     *machine
	procs []*kernel.Process
	gs    []*core.Group
	dirty [][]byte // shared pool of dirty-page contents

	vrecs []vop
	vg    []int // group of each record
	bdIdx []int
}

const (
	fleetGroups     = 256
	fleetPages      = 16
	fleetUnique     = 2  // pages per group not shared with the base image
	fleetDirtyPool  = 64 // distinct contents dirty writes draw from
	fleetBudgetByte = 1 << 20
)

func newFleetClones(seed int64, scale int) workload {
	return &fleetClones{seed: seed, groups: max(8, fleetGroups/scale), pages: fleetPages}
}

func (w *fleetClones) setup(tr *tracer) error {
	w.gen = newPageGen(w.seed)
	w.m = newMachine(tr, true)
	w.m.o.FleetMemBudget = fleetBudgetByte
	base := make([]byte, w.pages*vm.PageSize)
	for i := 0; i < w.pages; i++ {
		w.gen.fresh(base[i*vm.PageSize:])
	}
	w.dirty = make([][]byte, fleetDirtyPool)
	for i := range w.dirty {
		w.dirty[i] = make([]byte, vm.PageSize)
		w.gen.fresh(w.dirty[i])
	}
	for i := 0; i < w.groups; i++ {
		p, err := w.m.k.Spawn(0, "fleet-clone")
		if err != nil {
			return err
		}
		img := append([]byte(nil), base...)
		for j := w.pages - fleetUnique; j < w.pages; j++ {
			w.gen.fresh(img[j*vm.PageSize:])
		}
		if err := p.WriteMem(p.HeapBase(), img); err != nil {
			return err
		}
		g, err := w.m.o.Persist(fmt.Sprintf("clone-%d", i), p)
		if err != nil {
			return err
		}
		w.m.o.Attach(g, w.m.sb)
		if _, err := w.m.o.Checkpoint(g, core.CheckpointOpts{Full: true}); err != nil {
			return err
		}
		w.procs = append(w.procs, p)
		w.gs = append(w.gs, g)
	}
	for _, g := range w.gs {
		if err := w.m.o.Sync(g); err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetClones) op(r *rec, n int) error {
	i := n % w.groups
	p, g := w.procs[i], w.gs[i]
	d := 1 + w.gen.rng.IntN(2)
	t := r.start(callVMWrite)
	for j := 0; j < d; j++ {
		pg := w.gen.rng.IntN(w.pages)
		src := w.dirty[w.gen.rng.IntN(len(w.dirty))]
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), src); err != nil {
			r.stop(t)
			return err
		}
	}
	r.stop(t)

	t0 := time.Now()
	bd, err := r.checkpoint(w.m.o, g)
	r.opLat = append(r.opLat, us(time.Since(t0)))
	if err != nil {
		return err
	}
	if bd.Shed {
		return fmt.Errorf("checkpoint of group %d shed", g.ID)
	}
	if r.virtual {
		w.vrecs = append(w.vrecs, ckptVop(bd))
		w.vg = append(w.vg, i)
		w.bdIdx = append(w.bdIdx, len(g.Breakdowns())-1)
	}
	return nil
}

// drain syncs every group: the final Sync the throughput includes.
func (w *fleetClones) drain(r *rec) error {
	for _, g := range w.gs {
		if err := r.sync(w.m.o, g); err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetClones) vops() []vop {
	out := append([]vop(nil), w.vrecs...)
	bds := make(map[int][]core.CheckpointBreakdown)
	for i := range out {
		gi := w.vg[i]
		if bds[gi] == nil {
			bds[gi] = w.gs[gi].Breakdowns()
		}
		out[i].flush = bds[gi][w.bdIdx[i]].FlushTime
	}
	return out
}

func (w *fleetClones) vopTime(v vop) time.Duration { return v.stop }

func (w *fleetClones) counters() counters {
	var c counters
	w.m.readCounters(&c)
	return c
}

// oracle restores the last durable epoch of a seeded sample of groups
// from the store and compares each with its live process.
func (w *fleetClones) oracle() (int, error) {
	const sample = 8
	checked := 0
	for _, i := range w.gen.pick(identity(int64(w.groups)), min(sample, w.groups)) {
		g, p := w.gs[i], w.procs[i]
		if d, e := g.Durable(), g.Epoch(); d != e {
			return checked, fmt.Errorf("group %d durable epoch %d behind epoch %d after sync", g.ID, d, e)
		}
		img, _, err := w.m.sb.Load(g.ID, g.Durable())
		if err != nil {
			return checked, err
		}
		checked++
		if err := restoreAndCompare(img, p, p.HeapBase(), p.HeapBase()+vm.Addr(w.pages*vm.PageSize)); err != nil {
			return checked, fmt.Errorf("group %d: %w", g.ID, err)
		}
	}
	return checked, nil
}

func (w *fleetClones) teardown() {
	if w.m != nil {
		w.m.o.Close()
	}
}
