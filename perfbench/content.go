package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// pageGen makes page contents from the seed. A fresh page is a window
// of a seeded random pool stamped with a header holding the seed and a
// counter, so no two fresh pages share a content hash; the same seed
// always produces the same sequence of pages.
type pageGen struct {
	rng   *rand.Rand
	seed  int64
	pool  []byte
	count uint64
}

const poolBytes = 1 << 20

func newPageGen(seed int64) *pageGen {
	g := &pageGen{rng: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)), seed: seed}
	g.pool = make([]byte, poolBytes+vm.PageSize)
	for i := 0; i+8 <= len(g.pool); i += 8 {
		binary.LittleEndian.PutUint64(g.pool[i:], g.rng.Uint64())
	}
	return g
}

// pageID identifies one fresh page so it can be regenerated later
// without being kept.
type pageID struct {
	off   int
	count uint64
}

// fresh writes a never-before-seen page into dst and returns its ID.
func (g *pageGen) fresh(dst []byte) pageID {
	g.count++
	id := pageID{off: g.rng.IntN(poolBytes/8) * 8, count: g.count}
	g.fill(dst, id)
	return id
}

// fill regenerates the page with the given ID into dst.
func (g *pageGen) fill(dst []byte, id pageID) {
	copy(dst[:vm.PageSize], g.pool[id.off:id.off+vm.PageSize])
	binary.LittleEndian.PutUint64(dst[0:], uint64(g.seed)^0x5eedc0de5eedc0de)
	binary.LittleEndian.PutUint64(dst[8:], id.count)
}

// pick returns k distinct values from [0, n) in seeded order, using
// perm (a permutation of [0, n) owned by the caller) as working space.
func (g *pageGen) pick(perm []int64, k int) []int64 {
	for i := 0; i < k; i++ {
		j := i + g.rng.IntN(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// around returns a seeded count within ±spread of mid.
func (g *pageGen) around(mid, spread int) int {
	return mid - spread + g.rng.IntN(2*spread+1)
}

func identity(n int64) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	return p
}

// machine is one simulated host: virtual clock, kernel and
// orchestrator, plus a local object store on an Optane array when the
// workload has one. On traced runs the array is wrapped in a
// tracedDevice before it is handed to objstore.Create.
type machine struct {
	clock *storage.Clock
	k     *kernel.Kernel
	o     *core.Orchestrator
	objs  *objstore.Store
	dev   storage.Device
	sb    *core.StoreBackend
}

func newMachine(tr *tracer, withStore bool) *machine {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	m := &machine{clock: clock, k: k, o: core.NewOrchestrator(k)}
	if withStore {
		var dev storage.Device = storage.NewOptaneArray(4, clock)
		if tr.enabled() {
			dev = &tracedDevice{inner: dev, tr: tr}
		}
		m.dev = dev
		m.objs = objstore.Create(dev, clock)
		m.sb = core.NewStoreBackend(m.objs, k.Mem, clock)
	}
	return m
}

func (m *machine) readCounters(c *counters) {
	c.readMeter(m.k.Meter)
	if m.objs != nil {
		c.obj = m.objs.Stats()
		c.dev = m.dev.Stats()
	}
	c.fleet = m.o.FleetStats()
}

// restoreAndCompare restores img on a fresh machine and compares the
// first process's memory in [from, to) bit for bit with live's.
func restoreAndCompare(img *core.Image, live *kernel.Process, from, to vm.Addr) error {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	defer o.Close()
	ng, _, err := o.RestoreImage(img, 0, core.RestoreOpts{})
	if err != nil {
		return fmt.Errorf("restoring epoch %d: %w", img.Epoch, err)
	}
	p, err := k.Process(ng.PIDs()[0])
	if err != nil {
		return err
	}
	a := make([]byte, vm.PageSize)
	b := make([]byte, vm.PageSize)
	for addr := from; addr < to; addr += vm.PageSize {
		if err := live.ReadMem(addr, a); err != nil {
			return fmt.Errorf("reading live page %#x: %w", uint64(addr), err)
		}
		if err := p.ReadMem(addr, b); err != nil {
			return fmt.Errorf("reading restored page %#x: %w", uint64(addr), err)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("epoch %d: page %#x differs from the live process", img.Epoch, uint64(addr))
		}
	}
	return nil
}
