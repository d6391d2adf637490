package main

import (
	"fmt"
	"time"

	"aurora/internal/apps/redis"
	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/vm"
)

// redisIncr is the Table 3 path: a mini-Redis working set on one local
// store. Each cycle rewrites about 1/8 of the bulk pages with content
// never seen before, then checkpoints and syncs (output is released
// only once durable).
type redisIncr struct {
	seed int64
	ws   int64 // working-set bytes

	gen  *pageGen
	m    *machine
	p    *kernel.Process
	g    *core.Group
	bulk vm.Addr // first bulk page
	perm []int64 // bulk page indices
	buf  []byte

	vrecs []vop
	bdIdx []int
}

func newRedisIncr(seed int64, scale int) workload {
	return &redisIncr{seed: seed, ws: (64 << 20) / int64(scale)}
}

func (w *redisIncr) setup(tr *tracer) error {
	w.gen = newPageGen(w.seed)
	w.m = newMachine(tr, true)
	p, st, err := redis.Spawn(w.m.k, 0, "/redis.sock", 4096, w.ws+w.ws/4, nil)
	if err != nil {
		return err
	}
	w.p = p
	// Real keys through the SET path, values from the seed.
	keys := int(min(2000, w.ws/(8<<10)))
	val := make([]byte, vm.PageSize)
	for i := 0; i < keys; i++ {
		w.gen.fresh(val)
		if err := st.Set([]byte(fmt.Sprintf("key-%08d", i)), val[:1024]); err != nil {
			return err
		}
	}
	used, err := st.UsedBytes()
	if err != nil {
		return err
	}
	// The rest of the working set is bulk pages of seeded content; the
	// cycles mutate only these, leaving the table itself intact.
	first := vm.RoundUpPage(used)
	w.bulk = p.HeapBase() + vm.Addr(first)
	n := (w.ws - first) / vm.PageSize
	w.perm = identity(n)
	const chunk = 256
	w.buf = make([]byte, chunk*vm.PageSize)
	for pg := int64(0); pg < n; pg += chunk {
		c := min(chunk, n-pg)
		for i := int64(0); i < c; i++ {
			w.gen.fresh(w.buf[i*vm.PageSize:])
		}
		if err := p.WriteMem(w.bulk+vm.Addr(pg*vm.PageSize), w.buf[:c*vm.PageSize]); err != nil {
			return err
		}
	}
	if w.g, err = w.m.o.Persist("redis", p); err != nil {
		return err
	}
	w.m.o.Attach(w.g, w.m.sb)
	if _, err := w.m.o.Checkpoint(w.g, core.CheckpointOpts{Full: true}); err != nil {
		return err
	}
	return w.m.o.Sync(w.g)
}

func (w *redisIncr) op(r *rec, _ int) error {
	n := len(w.perm)
	k := w.gen.around(n/8, n/256)
	pages := w.gen.pick(w.perm, k)
	if need := k * vm.PageSize; len(w.buf) < need {
		w.buf = make([]byte, need)
	}
	for i := range pages {
		w.gen.fresh(w.buf[i*vm.PageSize:])
	}

	t := r.start(callVMWrite)
	for i, pg := range pages {
		if err := w.p.WriteMem(w.bulk+vm.Addr(pg*vm.PageSize), w.buf[i*vm.PageSize:(i+1)*vm.PageSize]); err != nil {
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

func (w *redisIncr) drain(*rec) error { return nil }

func (w *redisIncr) vops() []vop { return withFlush(w.g, w.vrecs, w.bdIdx) }

func (w *redisIncr) vopTime(v vop) time.Duration { return v.stop + v.flush }

func (w *redisIncr) counters() counters {
	var c counters
	w.m.readCounters(&c)
	return c
}

// oracle restores the last durable epoch from the store and compares
// the whole heap with the live process.
func (w *redisIncr) oracle() (int, error) {
	if d, e := w.g.Durable(), w.g.Epoch(); d != e {
		return 1, fmt.Errorf("durable epoch %d behind epoch %d after sync", d, e)
	}
	img, _, err := w.m.sb.Load(w.g.ID, w.g.Durable())
	if err != nil {
		return 1, err
	}
	h := w.p.HeapMapping()
	return 1, restoreAndCompare(img, w.p, h.Start, h.End)
}

func (w *redisIncr) teardown() {
	if w.m != nil {
		w.m.o.Close()
	}
}

// ckptVop is the virtual record of one checkpoint (flush time is
// filled in once the epoch retires).
func ckptVop(bd core.CheckpointBreakdown) vop {
	return vop{stop: bd.StopTime, meta: bd.MetadataCopy, lazy: bd.LazyDataCopy,
		objects: bd.Objects, metaBytes: bd.MetaBytes, pages: bd.PagesCaptured}
}

// withFlush completes records with the flush times the group's
// breakdowns carry after the epochs retired.
func withFlush(g *core.Group, vs []vop, idx []int) []vop {
	bds := g.Breakdowns()
	out := append([]vop(nil), vs...)
	for i := range out {
		out[i].flush = bds[idx[i]].FlushTime
	}
	return out
}
