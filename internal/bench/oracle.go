package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// This file is the invariant oracle every chaos engine in this package
// shares. It owns the counter workload the engines run and the checks
// Aurora's guarantees reduce to:
//
//   - a restored or migrated group is bit-identical to its checkpoint:
//     the counter it captured and every patterned page (verifyCounter,
//     on the live machine or a scratch restore);
//   - the durable epoch never goes backwards (durableLedger);
//   - exactly one store claims a lineage's primary role at the maximum
//     generation (solePrimary, over core.PrimaryClaims);
//   - the durable frontier reaches the barrier epoch (syncDurable), and
//     admission control sheds a barrier without starving it
//     (admitCheckpoint).

// counterProgram is the chaos workload: a 64-bit little-endian counter
// at the heap base incremented once per kernel step, so hundreds of
// checkpoints cannot wrap it and every epoch has a distinct, predictable
// value.
type counterProgram struct{ addr vm.Addr }

func (c *counterProgram) ProgName() string { return "bench-chaos-counter" }

func (c *counterProgram) Snapshot() []byte {
	e := kernel.NewEncoder()
	e.U64(uint64(c.addr))
	return e.Bytes()
}

func (c *counterProgram) Step(k *kernel.Kernel, p *kernel.Process, t *kernel.Thread) error {
	var b [8]byte
	if err := p.ReadMem(c.addr, b[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b[:], binary.LittleEndian.Uint64(b[:])+1)
	return p.WriteMem(c.addr, b[:])
}

func init() {
	kernel.RegisterProgram("bench-chaos-counter", func(k *kernel.Kernel, p *kernel.Process, state []byte) (kernel.Program, error) {
		d := kernel.NewDecoder(state)
		return &counterProgram{addr: vm.Addr(d.U64())}, nil
	})
}

// pattern is the content of patterned page `page` under a pattern seed.
func pattern(page int, seed int64) []byte {
	b := make([]byte, vm.PageSize)
	for i := range b {
		b[i] = byte(int64(page)*31 + int64(i)*7 + seed)
	}
	return b
}

// writePages fills heap pages 1..pages of p with their pattern.
func writePages(p *kernel.Process, pages int, seed int64) error {
	for pg := 1; pg <= pages; pg++ {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), pattern(pg, seed)); err != nil {
			return err
		}
	}
	return nil
}

// checkPages compares heap pages 1..pages of p bit-for-bit against their
// pattern, demand-paging any cold page, and names the first page that
// differs.
func checkPages(p *kernel.Process, pages int, seed int64) error {
	buf := make([]byte, vm.PageSize)
	for pg := 1; pg <= pages; pg++ {
		if err := p.ReadMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), buf); err != nil {
			return fmt.Errorf("paging page %d: %w", pg, err)
		}
		ref := pattern(pg, seed)
		for i := range buf {
			if buf[i] != ref[i] {
				return fmt.Errorf("page %d byte %d differs — not bit-identical", pg, i)
			}
		}
	}
	return nil
}

// spawnCounter starts the counter workload on o's kernel with pages
// patterned pages under the pattern seed, and persists it as a group.
func spawnCounter(o *core.Orchestrator, name string, pages int, seed int64) (*core.Group, error) {
	p, err := o.K.Spawn(0, name)
	if err != nil {
		return nil, err
	}
	p.SetProgram(&counterProgram{addr: p.HeapBase()})
	if err := writePages(p, pages, seed); err != nil {
		return nil, err
	}
	return o.Persist(name, p)
}

// member returns the group's first process on k.
func member(k *kernel.Kernel, g *core.Group) (*kernel.Process, error) {
	pids := g.PIDs()
	if len(pids) == 0 {
		return nil, fmt.Errorf("group %d has no members", g.ID)
	}
	return k.Process(pids[0])
}

// readCounter reads the workload counter of group g running on k.
func readCounter(k *kernel.Kernel, g *core.Group) (uint64, error) {
	p, err := member(k, g)
	if err != nil {
		return 0, err
	}
	return counterOf(p)
}

func counterOf(p *kernel.Process) (uint64, error) {
	var b [8]byte
	if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
		return 0, fmt.Errorf("reading counter: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// verifyCounter checks group g on k bit-for-bit against a checkpoint:
// the counter must equal want and pages 1..pages must hold their
// pattern under seed.
func verifyCounter(k *kernel.Kernel, g *core.Group, want uint64, pages int, seed int64) error {
	p, err := member(k, g)
	if err != nil {
		return err
	}
	got, err := counterOf(p)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("counter %d, want %d — not bit-identical", got, want)
	}
	return checkPages(p, pages, seed)
}

// counterLog is the counter value each epoch of one lineage captured.
type counterLog map[uint64]uint64

// verify checks group g on k bit-for-bit against what epoch captured.
func (l counterLog) verify(k *kernel.Kernel, g *core.Group, epoch uint64, pages int, seed int64) error {
	want, ok := l[epoch]
	if !ok {
		return fmt.Errorf("no recorded counter for epoch %d", epoch)
	}
	if err := verifyCounter(k, g, want, pages, seed); err != nil {
		return fmt.Errorf("epoch %d: %w", epoch, err)
	}
	return nil
}

// loadEpoch loads (group, epoch) from sb, retrying through injected
// read faults.
func loadEpoch(sb *core.StoreBackend, group, epoch uint64) (img *core.Image, readTime time.Duration, err error) {
	for attempt := 0; attempt < 8; attempt++ {
		if img, readTime, err = sb.Load(group, epoch); err == nil {
			return img, readTime, nil
		}
	}
	return nil, 0, fmt.Errorf("loading group %d epoch %d: %w", group, epoch, err)
}

// scratchRestore restores img on a fresh scratch machine: a restore that
// shares nothing with the machine the image came from.
func scratchRestore(img *core.Image, readTime time.Duration) (*Node, *core.Group, error) {
	m := NewNode("scratch", 0, 0, 0, 0)
	g, _, err := m.o.RestoreImage(img, readTime, core.RestoreOpts{})
	if err != nil {
		return nil, nil, fmt.Errorf("scratch restore of group %d epoch %d: %w", img.Group, img.Epoch, err)
	}
	return m, g, nil
}

// syncDurable drives g's durable frontier up to its barrier epoch,
// retrying failed flushes with fresh fault rolls. Orchestrator.Sync
// means "durable everywhere" and so also errors on a partitioned
// replica; this cares only that some durable backend holds every epoch.
func syncDurable(o *core.Orchestrator, g *core.Group) error {
	var last error
	for round := 0; round < 12; round++ {
		last = o.Sync(g)
		if g.Durable() == g.Epoch() {
			return nil
		}
	}
	return fmt.Errorf("durable frontier stuck at %d (barrier %d): %w", g.Durable(), g.Epoch(), last)
}

// heal drives g back to health over wire w: each round, until healthy
// holds, w is reset unless its own backend is healthy and caught up,
// then g is resynced and synced. Under probabilistic faults a round
// can fail and a later one succeed.
func heal(o *core.Orchestrator, g *core.Group, w *Wire, healthy func() bool) error {
	var last error
	for round := 0; round < 12; round++ {
		if healthy() {
			return nil
		}
		if hi, ok := w.health(g); !ok || hi.State != core.BackendHealthy || hi.Pending > 0 {
			if err := w.reset(g.ID); err != nil {
				return err
			}
		}
		_ = o.Resync(g)
		last = o.Sync(g)
	}
	return fmt.Errorf("group %d did not heal over %s: %w", g.ID, w.name, last)
}

// admitCheckpoint checkpoints g until admission control admits the
// barrier. Shedding bounds checkpoint frequency, never progress: before
// each retry, retry (when non-nil) runs more of the workload, so the
// next barrier coalesces the slices.
func admitCheckpoint(o *core.Orchestrator, g *core.Group, retry func() error) error {
	for attempt := 0; attempt < 16; attempt++ {
		if attempt > 0 && retry != nil {
			if err := retry(); err != nil {
				return err
			}
		}
		bd, err := o.Checkpoint(g, core.CheckpointOpts{})
		if err != nil {
			return err
		}
		if !bd.Shed {
			return nil
		}
	}
	return errors.New("admission control starved the checkpoint barrier")
}

// durableLedger is the per-lineage durable high-water mark: observing a
// durable epoch below the recorded one is a regression.
type durableLedger map[uint64]uint64

func (l durableLedger) observe(lineage, durable uint64) error {
	if prev := l[lineage]; durable < prev {
		return fmt.Errorf("lineage %d durable epoch regressed %d -> %d", lineage, prev, durable)
	}
	l[lineage] = durable
	return nil
}

// solePrimary checks the fencing invariant across nodes' stores: exactly
// one claims the lineage's primary role at the maximum generation.
func solePrimary(lineage uint64, nodes ...*Node) error {
	stores := make([]*core.StoreBackend, len(nodes))
	for i, n := range nodes {
		stores[i] = n.sb
	}
	gen, top := core.PrimaryClaims(lineage, stores...)
	if len(top) == 1 {
		return nil
	}
	var names []string
	for _, n := range nodes {
		for _, sb := range top {
			if n.sb == sb {
				names = append(names, n.name)
			}
		}
	}
	return fmt.Errorf("lineage %d: %d stores claim primary at generation %d, want exactly 1 (claimants %v)",
		lineage, len(top), gen, names)
}
