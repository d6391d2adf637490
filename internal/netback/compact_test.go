package netback

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// pageOf is a deterministic page of content identified by seed.
func pageOf(seed int64) []byte {
	p := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// synthImage builds an image of group 1 at epoch whose page idx holds
// pageOf(seeds[idx]).
func synthImage(t *testing.T, pm *vm.PhysMem, epoch uint64, full bool, seeds map[int64]int64) *core.Image {
	t.Helper()
	mi := &core.MemImage{ObjID: 7, Name: "heap", Size: 64 * vm.PageSize, Pages: make(map[int64]*vm.Frame)}
	for idx, seed := range seeds {
		f, err := pm.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data, pageOf(seed))
		mi.Pages[idx] = f
	}
	return &core.Image{Group: 1, Epoch: epoch, Full: full, Memory: map[uint64]*core.MemImage{mi.ObjID: mi}}
}

// chainHashes hashes every page of the receiver's current chains from
// scratch: the set the block index must equal.
func chainHashes(r *Receiver) map[objstore.Hash]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	want := make(map[objstore.Hash]bool)
	for _, chain := range r.chains {
		for _, img := range chain {
			for _, mi := range img.Memory {
				for _, f := range mi.Pages {
					want[sha256.Sum256(f.Data)] = true
				}
			}
		}
	}
	return want
}

// checkIndex brings the index up to date and requires it to hold
// exactly the pages of the current chains, each under its own hash.
func checkIndex(t *testing.T, r *Receiver, step string) {
	t.Helper()
	r.mu.Lock()
	r.lookupBlock(objstore.Hash{})
	got := make(map[objstore.Hash]bool, len(r.blockIdx))
	for h := range r.blockIdx {
		got[h] = true
	}
	r.mu.Unlock()
	want := chainHashes(r)
	if len(got) != len(want) {
		t.Fatalf("%s: index holds %d hashes, chains hold %d", step, len(got), len(want))
	}
	for h := range want {
		if !got[h] {
			t.Fatalf("%s: chain page %x missing from the index", step, h[:4])
		}
		d, ok := r.FetchBlock(h)
		if !ok || sha256.Sum256(d) != h {
			t.Fatalf("%s: ref %x resolved to bytes of another hash (ok=%v)", step, h[:4], ok)
		}
	}
}

// TestCompactDeltaIndexEquivalence pins the incremental block index to
// the rebuild-from-scratch answer: after appended, out-of-order and
// same-epoch-replaced deltas it holds exactly the pages of the current
// chains, appends extend it in place, and only a replacement rebuilds.
func TestCompactDeltaIndexEquivalence(t *testing.T) {
	pm := vm.NewPhysMem(0)
	r := NewReceiver(pm, nil)

	r.link(synthImage(t, pm, 1, true, map[int64]int64{0: 1, 1: 2, 2: 3, 3: 4}))
	checkIndex(t, r, "full image")
	built := r.blockIdx

	r.link(synthImage(t, pm, 3, false, map[int64]int64{0: 30, 1: 2}))
	r.link(synthImage(t, pm, 2, false, map[int64]int64{2: 20}))
	if r.blockIdx == nil || len(r.blockNew) != 2 {
		t.Fatalf("appends reset the index (nil=%v, queued %d), want 2 queued", r.blockIdx == nil, len(r.blockNew))
	}
	checkIndex(t, r, "out-of-order appends")
	if reflect.ValueOf(r.blockIdx).Pointer() != reflect.ValueOf(built).Pointer() || len(r.blockNew) != 0 {
		t.Fatal("appended images were not indexed in place")
	}

	// A retried flush replaces epoch 3 in place: its page 30 leaves the
	// chain, so it must leave the index too.
	gone := sha256.Sum256(pageOf(30))
	r.link(synthImage(t, pm, 3, false, map[int64]int64{0: 31}))
	if r.blockIdx != nil {
		t.Fatal("same-epoch replacement kept the stale index")
	}
	checkIndex(t, r, "same-epoch replacement")
	if _, ok := r.FetchBlock(gone); ok {
		t.Fatal("page of the replaced epoch still resolves")
	}

	r.link(synthImage(t, pm, 4, false, map[int64]int64{3: 40, 4: 1}))
	checkIndex(t, r, "append after rebuild")

	// FetchBlock hands out a private copy: scribbling on it leaves the
	// index intact.
	h := sha256.Sum256(pageOf(40))
	d, _ := r.FetchBlock(h)
	d[0] ^= 0xff
	checkIndex(t, r, "after scribbling on a fetched copy")
}

// exchange writes one frame and reads the receiver's reply.
func exchange(t *testing.T, conn net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	rt, rp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rp
}

// TestCompactDeltaInstallDropsOldChain checks that install swapping a
// chain drops the old chain's pages from the index: a ref to a page
// that lived only there answers frameNeed, as a fresh rebuild would.
func TestCompactDeltaInstallDropsOldChain(t *testing.T) {
	pm := vm.NewPhysMem(0)
	recv := NewReceiver(pm, nil)
	local, remote := net.Pipe()
	done := serveReplica(recv, remote)
	allRefs := func(objstore.Hash) bool { return true }

	if typ, _ := exchange(t, local, frameDelta, synthImage(t, pm, 1, true, map[int64]int64{0: 1, 1: 2}).EncodeDelta()); typ != frameAck {
		t.Fatalf("epoch 1: reply type %d, want ack", typ)
	}
	// While the old chain is held, a ref to its page 2 resolves.
	probe, pages, skipped := synthImage(t, pm, 2, false, map[int64]int64{5: 2}).EncodeDeltaCompact(allRefs)
	if pages != 1 || skipped != 1 {
		t.Fatalf("probe encoded %d pages, %d refs; want 1, 1", pages, skipped)
	}
	if typ, _ := exchange(t, local, frameDeltaC, probe); typ != frameAck {
		t.Fatalf("ref into the held chain: reply type %d, want ack", typ)
	}

	if typ, _ := exchange(t, local, frameImage, synthImage(t, pm, 10, true, map[int64]int64{0: 3}).Encode()); typ != frameAck {
		t.Fatalf("install: reply type %d, want ack", typ)
	}
	probe, _, _ = synthImage(t, pm, 11, false, map[int64]int64{5: 2}).EncodeDeltaCompact(allRefs)
	typ, reply := exchange(t, local, frameDeltaC, probe)
	if typ != frameNeed || binary.LittleEndian.Uint64(reply[:8]) != 1 || binary.LittleEndian.Uint64(reply[8:]) != 11 {
		t.Fatalf("ref into the swapped-out chain: reply type %d %x, want need for 1/11", typ, reply)
	}
	if _, ok := recv.FetchBlock(sha256.Sum256(pageOf(2))); ok {
		t.Fatal("page of the swapped-out chain still resolves")
	}
	checkIndex(t, recv, "after install")

	local.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCompactDeltaFetchBlockDuringServe runs the scrub/peer read path
// (FetchBlock) against a receiver that is linking compact deltas, so
// -race checks the index's locking; every block served must carry the
// bytes of the hash asked for.
func TestCompactDeltaFetchBlockDuringServe(t *testing.T) {
	recv := NewReceiver(vm.NewPhysMem(0), nil)
	local, remote := net.Pipe()
	done := serveReplica(recv, remote)
	rb := NewReplicaBackend(nil)
	if _, err := rb.Connect(local, 1); err != nil {
		t.Fatal(err)
	}
	pm := vm.NewPhysMem(0)
	const epochs, perEpoch = 24, 8
	var asked []objstore.Hash
	for s := int64(0); s < epochs*perEpoch; s++ {
		asked = append(asked, sha256.Sum256(pageOf(s)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, h := range asked {
					select {
					case <-stop:
						return
					default:
					}
					if d, ok := recv.FetchBlock(h); ok && sha256.Sum256(d) != h {
						t.Errorf("FetchBlock(%x) served bytes of another hash", h[:4])
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for e := int64(1); e <= epochs; e++ {
		// Half the pages repeat content an earlier epoch shipped (refs),
		// half are new.
		seeds := make(map[int64]int64, perEpoch)
		for i := int64(0); i < perEpoch; i++ {
			seed := (e-1)*perEpoch + i
			if i%2 == 0 && e > 1 {
				seed = rng.Int63n((e - 1) * perEpoch)
			}
			seeds[i] = seed
		}
		if _, err := rb.Flush(synthImage(t, pm, uint64(e), e == 1, seeds)); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	close(stop)
	wg.Wait()
	if _, skipped, resends := rb.DeltaStats(); skipped == 0 || resends != 0 {
		t.Fatalf("delta stats: skipped %d resends %d, want refs and no resends", skipped, resends)
	}
	checkIndex(t, recv, "after the stream")

	local.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
