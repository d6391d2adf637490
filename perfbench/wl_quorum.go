package main

import (
	"fmt"
	"io"
	"time"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// quorumShip is the replication path: a mini-Redis-sized heap shipped
// over three fault-free netback links to receivers at W=2, with no
// local store. Each cycle rewrites about 1/8 of the pages; about half
// get content the replicas already hold (so compact-delta refs hit)
// and half get fresh content. Then Checkpoint and Sync.
type quorumShip struct {
	seed int64
	ws   int64

	gen   *pageGen
	m     *machine
	p     *kernel.Process
	g     *core.Group
	ids   []pageID // initial content of every page, all shipped in the full checkpoint
	perm  []int64
	buf   []byte
	links []*quorumLink

	vrecs []vop
	bdIdx []int
}

// quorumLink is one replica: its fault link (no faults configured),
// the backend on the primary, and the far-side receiver serving the
// replica protocol on its own goroutine.
type quorumLink struct {
	link *netback.FaultLink
	rb   *netback.ReplicaBackend
	recv *netback.Receiver
	done chan error
}

const (
	quorumReplicas = 3
	quorumW        = 2
)

func newQuorumShip(seed int64, scale int) workload {
	return &quorumShip{seed: seed, ws: (16 << 20) / int64(scale)}
}

func (w *quorumShip) setup(tr *tracer) error {
	w.gen = newPageGen(w.seed)
	w.m = newMachine(tr, false)
	p, err := w.m.k.Spawn(0, "quorum-app")
	if err != nil {
		return err
	}
	w.p = p
	if _, err := p.Sbrk(w.ws); err != nil {
		return err
	}
	n := w.ws / vm.PageSize
	w.perm = identity(n)
	w.ids = make([]pageID, n)
	const chunk = 256
	w.buf = make([]byte, chunk*vm.PageSize)
	for pg := int64(0); pg < n; pg += chunk {
		c := min(chunk, n-pg)
		for i := int64(0); i < c; i++ {
			w.ids[pg+i] = w.gen.fresh(w.buf[i*vm.PageSize:])
		}
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), w.buf[:c*vm.PageSize]); err != nil {
			return err
		}
	}
	if w.g, err = w.m.o.Persist("quorum-app", p); err != nil {
		return err
	}
	rs := netback.NewReplicaSet(quorumW)
	for i := 0; i < quorumReplicas; i++ {
		l := &quorumLink{
			link: netback.NewFaultLink(netback.LinkFaultConfig{Seed: w.seed*7919 + int64(i)}, w.m.clock),
			rb:   netback.NewReplicaBackend(w.m.clock),
			recv: netback.NewReceiver(vm.NewPhysMem(0), storage.NewClock()),
			done: make(chan error, 1),
		}
		var a, b io.ReadWriter = l.link.A(), l.link.B()
		if tr.enabled() {
			a, b = &tracedConn{inner: a, tr: tr}, &tracedConn{inner: b, tr: tr}
		}
		go func() {
			_, err := l.recv.ServeReplica(b)
			l.done <- err
		}()
		w.links = append(w.links, l)
		if _, err := l.rb.Connect(a, w.g.ID); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		rs.Add(fmt.Sprintf("replica%d", i), l.rb, l.recv)
	}
	rs.AttachAll(w.m.o, w.g)
	if _, err := w.m.o.Checkpoint(w.g, core.CheckpointOpts{Full: true}); err != nil {
		return err
	}
	return w.m.o.Sync(w.g)
}

func (w *quorumShip) op(r *rec, _ int) error {
	n := len(w.perm)
	k := w.gen.around(n/8, n/256)
	pages := w.gen.pick(w.perm, k)
	if need := k * vm.PageSize; len(w.buf) < need {
		w.buf = make([]byte, need)
	}
	for i := range pages {
		dst := w.buf[i*vm.PageSize:]
		if w.gen.rng.IntN(2) == 0 {
			// Content some page held at the full checkpoint: every
			// replica already has it.
			w.gen.fill(dst, w.ids[w.gen.rng.IntN(len(w.ids))])
		} else {
			w.gen.fresh(dst)
		}
	}

	t := r.start(callVMWrite)
	for i, pg := range pages {
		if err := w.p.WriteMem(w.p.HeapBase()+vm.Addr(pg*vm.PageSize), w.buf[i*vm.PageSize:(i+1)*vm.PageSize]); err != nil {
			r.stop(t)
			return err
		}
	}
	r.stop(t)

	t0 := time.Now()
	bd, err := r.checkpoint(w.m.o, w.g)
	if err != nil {
		return err
	}
	if bd.Shed {
		return fmt.Errorf("checkpoint shed")
	}
	if err := r.sync(w.m.o, w.g); err != nil {
		return err
	}
	r.opLat = append(r.opLat, us(time.Since(t0)))
	if r.virtual {
		w.vrecs = append(w.vrecs, ckptVop(bd))
		w.bdIdx = append(w.bdIdx, len(w.g.Breakdowns())-1)
	}
	return nil
}

func (w *quorumShip) drain(*rec) error { return nil }

func (w *quorumShip) vops() []vop { return withFlush(w.g, w.vrecs, w.bdIdx) }

func (w *quorumShip) vopTime(v vop) time.Duration { return v.stop + v.flush }

func (w *quorumShip) counters() counters {
	var c counters
	w.m.readCounters(&c)
	for _, l := range w.links {
		sent, ref, resends := l.rb.DeltaStats()
		c.net.sent += sent
		c.net.ref += ref
		c.net.resends += resends
		c.net.needs += l.recv.NeedsSent()
		c.net.received += l.recv.ReceivedBytes()
	}
	return c
}

// oracle restores the newest image each receiver holds and compares
// it with the live process; at least W receivers must hold the last
// durable epoch.
func (w *quorumShip) oracle() (int, error) {
	durable := w.g.Durable()
	if e := w.g.Epoch(); durable != e {
		return 1, fmt.Errorf("durable epoch %d behind epoch %d after sync", durable, e)
	}
	checked := 0
	for i, l := range w.links {
		img, err := l.recv.Latest(w.g.ID)
		if err != nil || img.Epoch != durable {
			continue // a replica outside the quorum may still be catching up
		}
		checked++
		h := w.p.HeapMapping()
		if err := restoreAndCompare(img, w.p, h.Start, h.End); err != nil {
			return checked, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if checked < quorumW {
		return checked, fmt.Errorf("only %d replicas hold durable epoch %d, want %d", checked, durable, quorumW)
	}
	return checked, nil
}

func (w *quorumShip) teardown() {
	if w.m == nil {
		return
	}
	w.m.o.Close()
	for _, l := range w.links {
		l.link.PartitionBoth()
		<-l.done
		l.rb.Disconnect()
	}
}
