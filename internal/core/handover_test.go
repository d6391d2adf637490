package core

import (
	"errors"
	"testing"
	"time"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// stubSource is a ReplicaSource with a scripted floor and fence. When
// sb is set, its epochs and images are the lineage's checkpoints in sb.
type stubSource struct {
	floor, fence uint64
	sb           *StoreBackend
}

func (s *stubSource) ImageAt(group, epoch uint64) (*Image, error) {
	img, _, err := s.sb.Load(group, epoch)
	return img, err
}
func (s *stubSource) ContiguousEpoch(group uint64) uint64 { return s.floor }
func (s *stubSource) ReplicaEpochs(group uint64) []uint64 {
	if s.sb == nil {
		return nil
	}
	return s.sb.Epochs(group)
}
func (s *stubSource) FenceGen(group uint64) uint64 { return s.fence }
func (s *stubSource) AdoptFence(group, gen uint64) { s.fence = gen }

// handoverRig is a machine whose store sits on a fault device, so a
// test can make the claim's superblock write fail.
type handoverRig struct {
	o  *Orchestrator
	fd *storage.FaultDevice
	sb *StoreBackend
}

func newHandoverRig() *handoverRig {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock, storage.FaultConfig{Seed: 1})
	return &handoverRig{o: NewOrchestrator(k), fd: fd, sb: NewStoreBackend(objstore.Create(fd, clock), k.Mem, clock)}
}

// sources builds one stub candidate per floor.
func sources(floors ...uint64) []ReplicaSource {
	out := make([]ReplicaSource, len(floors))
	for i, f := range floors {
		out[i] = &stubSource{floor: f}
	}
	return out
}

// TestHandover pins the handover's steps case by case: the election's
// tie-break (and the placer's name-ordered, liveness-filtered
// candidate list feeding it), the mint landing above each witness on
// its own, backfill skipping held epochs, the claim setting the
// group's generation, and a failed claim leaving neither a restored
// group nor a primary claim at the new generation.
func TestHandover(t *testing.T) {
	const lineage, stream = 100, 5
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"equal floors elect the first candidate", func(t *testing.T) {
			for _, tc := range []struct {
				floors []uint64
				want   int
			}{
				{[]uint64{5, 5}, 0},
				{[]uint64{3, 5, 5, 2}, 1},
				{[]uint64{2, 4, 7}, 2},
			} {
				if got, floor := electFloor(sources(tc.floors...), stream); got != tc.want || floor != tc.floors[tc.want] {
					t.Errorf("floors %v: elected %d at floor %d, want %d", tc.floors, got, floor, tc.want)
				}
			}
		}},
		{"no contiguous epoch fails the election", func(t *testing.T) {
			r := newHandoverRig()
			for _, cands := range [][]ReplicaSource{nil, sources(0, 0)} {
				h := &handover{o: r.o, dst: r.sb, lineage: lineage, stream: stream, cands: cands}
				if err := h.elect(); !errors.Is(err, ErrNoImage) {
					t.Errorf("%d candidates: elect = %v, want ErrNoImage", len(cands), err)
				}
			}
			h := &handover{o: r.o, lineage: lineage, stream: stream, cands: sources(3)}
			if err := h.elect(); !errors.Is(err, errNoTargetStore) {
				t.Errorf("nil target store: %v, want errNoTargetStore", err)
			}
		}},
		{"the placer's name order elects the lowest name", func(t *testing.T) {
			pl := &Placement{g: &Group{ID: stream}, sources: make(map[*StoreNode]ReplicaSource)}
			for _, name := range []string{"c", "a", "b"} {
				n := &StoreNode{Name: name}
				pl.replicas = append(pl.replicas, n)
				pl.sources[n] = &stubSource{floor: 5}
			}
			if got, _ := NewPlacer(nil, PlacerConfig{}).electStandbyLocked(pl); got == nil || got.Name != "a" {
				t.Errorf("elected %v among equal floors, want the lowest name a", got)
			}
		}},
		{"the placer skips down and fenced stores", func(t *testing.T) {
			pl := &Placement{g: &Group{ID: stream}, sources: make(map[*StoreNode]ReplicaSource)}
			for _, r := range []struct {
				name  string
				state StoreState
				floor uint64
			}{
				{"a", StoreDown, 9},
				{"b", StoreFenced, 9},
				{"c", StoreActive, 2},
				{"d", StoreDraining, 3},
			} {
				n := &StoreNode{Name: r.name, state: r.state}
				pl.replicas = append(pl.replicas, n)
				pl.sources[n] = &stubSource{floor: r.floor}
			}
			// A live replica with no receiver view is no candidate either.
			pl.replicas = append(pl.replicas, &StoreNode{Name: "e"})
			if got, _ := NewPlacer(nil, PlacerConfig{}).electStandbyLocked(pl); got == nil || got.Name != "d" {
				t.Errorf("elected %v, want the draining store d (down and fenced skipped)", got)
			}
		}},
		{"mint lands above each witness alone", func(t *testing.T) {
			for _, w := range []struct {
				name string
				set  func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64
			}{
				{"group generation", func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64 {
					return []uint64{7}
				}},
				{"replica fence", func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64 {
					cand.fence = 7
					return nil
				}},
				{"target store fence on the stream key", func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64 {
					r.sb.Store().AdoptFence(stream, 7)
					return nil
				}},
				{"target store fence on the lineage key", func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64 {
					r.sb.Store().AdoptFence(lineage, 7)
					return nil
				}},
				{"source store fence on the stream key", func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64 {
					extra.Store().AdoptFence(stream, 7)
					return nil
				}},
				{"source store fence on the lineage key", func(r *handoverRig, cand *stubSource, extra *StoreBackend) []uint64 {
					extra.Store().AdoptFence(lineage, 7)
					return nil
				}},
			} {
				r, src := newHandoverRig(), newHandoverRig()
				cand := &stubSource{floor: 3}
				gens := w.set(r, cand, src.sb)
				h := &handover{o: r.o, dst: r.sb, lineage: lineage, stream: stream, cands: []ReplicaSource{cand}, retry: once}
				if got := h.mint(gens, src.sb); got != 8 {
					t.Errorf("%s at 7: minted %d, want 8", w.name, got)
				}
				if h.fence(); cand.fence != 8 {
					t.Errorf("%s: candidate fence %d after the fence step, want 8", w.name, cand.fence)
				}
			}
		}},
		{"a failed claim retires the restored group and claims nothing", func(t *testing.T) {
			src := newRig(t)
			g, err := src.o.Persist("counter", spawnCounter(t, src))
			if err != nil {
				t.Fatal(err)
			}
			src.o.Attach(g, src.store)
			for i := 0; i < 3; i++ {
				if _, err := src.k.Run(2); err != nil {
					t.Fatal(err)
				}
				if _, err := src.o.Checkpoint(g, CheckpointOpts{}); err != nil {
					t.Fatal(err)
				}
				if err := src.o.Sync(g); err != nil {
					t.Fatal(err)
				}
			}
			for _, fail := range []bool{false, true} {
				dst := newHandoverRig()
				// A fence above the images' generation: the claim, not the
				// restore, decides the generation the group runs at.
				cand := &stubSource{floor: g.Epoch(), fence: 4, sb: src.store}
				h := &handover{o: dst.o, dst: dst.sb, lineage: g.ID, stream: g.ID, cands: []ReplicaSource{cand}, retry: once}
				if err := h.elect(); err != nil {
					t.Fatal(err)
				}
				h.mint(nil)
				h.fence()
				if err := h.backfill(); err != nil || h.backfilled != 3 {
					t.Fatalf("backfill: %d epochs, err %v; want 3", h.backfilled, err)
				}
				if err := h.restore(once, func() (*Image, time.Duration, error) {
					img, err := cand.ImageAt(g.ID, h.floor)
					return img, 0, err
				}, RestoreOpts{}, nil); err != nil {
					t.Fatal(err)
				}
				if fail {
					dst.fd.Down()
				}
				err = h.claim(h.g)
				gen, claims := PrimaryClaims(g.ID, dst.sb)
				restored := false
				for _, rg := range dst.o.Groups() {
					restored = restored || rg == h.g
				}
				if !fail {
					if err != nil || len(claims) != 1 || gen != 5 || h.g.Generation() != 5 || !restored {
						t.Fatalf("claim: err %v, claims %d at gen %d, group gen %d, restored %v; want one claim at 5",
							err, len(claims), gen, h.g.Generation(), restored)
					}
					// A second handover onto the same store finds every
					// epoch already held.
					again := &handover{o: dst.o, dst: dst.sb, lineage: g.ID, stream: g.ID, cands: []ReplicaSource{cand}, retry: once}
					if err := again.elect(); err != nil {
						t.Fatal(err)
					}
					if err := again.backfill(); err != nil || again.backfilled != 0 {
						t.Fatalf("backfill onto a store holding every epoch: %d copied, err %v", again.backfilled, err)
					}
					continue
				}
				if err == nil {
					t.Fatal("claim succeeded on a dead device")
				}
				if len(claims) != 0 && gen == h.gen {
					t.Errorf("a failed claim left the store claiming primary at generation %d", gen)
				}
				if restored {
					t.Error("a failed claim left the restored group persisted")
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
