package main

import (
	"fmt"
	"time"

	"aurora/internal/apps/faas"
	"aurora/internal/core"
)

// faasRestore is the read path: the hello function is deployed once,
// and each operation warm-starts it from the store (LoadLazy →
// RestoreImage → RunInstance), checks the result, and retires the
// instance (exit, reap, Unpersist).
type faasRestore struct {
	seed  int64
	scale int

	gen *pageGen
	m   *machine
	rt  *faas.Runtime
	fn  *faas.Function

	vrecs []vop
}

func newFaasRestore(seed int64, scale int) workload {
	return &faasRestore{seed: seed, scale: scale}
}

func (w *faasRestore) setup(tr *tracer) error {
	w.gen = newPageGen(w.seed)
	w.m = newMachine(tr, true)
	w.rt = faas.NewRuntime(w.m.o, w.m.sb, nil)
	// The runtime image size is drawn from the seed around the
	// default 160 pages (~650 KB).
	w.rt.RuntimePages = w.gen.around(w.rt.RuntimePages, w.rt.RuntimePages/10) / w.scale
	if _, err := w.rt.BuildBase(); err != nil {
		return err
	}
	cfg := make([]byte, 4096)
	w.gen.fresh(cfg)
	var err error
	w.fn, err = w.rt.Deploy("hello", cfg[:256])
	return err
}

func (w *faasRestore) op(r *rec, _ int) error {
	arg := 1 + w.gen.rng.Uint64N(1<<31)
	t0 := time.Now()
	t := r.start(callLoad)
	img, readTime, err := w.m.sb.LoadLazy(w.fn.Group.ID, 0)
	r.stop(t)
	if err != nil {
		return err
	}
	t = r.start(callRestore)
	ng, bd, err := w.m.o.RestoreImage(img, readTime, core.RestoreOpts{Lazy: true, Name: "invoke-hello"})
	r.stop(t)
	if err != nil {
		return err
	}
	p, err := w.m.k.Process(ng.PIDs()[0])
	if err != nil {
		return err
	}
	t = r.start(callStep)
	got, err := w.rt.RunInstance(p, arg)
	r.stop(t)
	if err != nil {
		return err
	}
	r.opLat = append(r.opLat, us(time.Since(t0)))
	if want := w.rt.Expected(arg); got != want {
		return fmt.Errorf("f(%d) = %d, want %d", arg, got, want)
	}
	t = r.start(callExit)
	w.m.k.Exit(p, 0)
	err = w.m.k.Reap(p)
	r.stop(t)
	if err != nil {
		return err
	}
	t = r.start(callUnpersist)
	w.m.o.Unpersist(ng)
	r.stop(t)
	if r.virtual {
		w.vrecs = append(w.vrecs, vop{restore: bd.Total, read: bd.ObjectStoreRead})
	}
	return nil
}

func (w *faasRestore) drain(*rec) error { return nil }

func (w *faasRestore) vops() []vop { return w.vrecs }

func (w *faasRestore) vopTime(v vop) time.Duration { return v.restore }

func (w *faasRestore) counters() counters {
	var c counters
	w.m.readCounters(&c)
	return c
}

// oracle: every result was compared with Runtime.Expected inside the
// operation; nothing is left to check here.
func (w *faasRestore) oracle() (int, error) { return 0, nil }

func (w *faasRestore) teardown() {
	if w.m != nil {
		w.m.o.Close()
	}
}
