package core_test

import (
	"net"
	"testing"

	"aurora/internal/core"
	"aurora/internal/kernel"
	"aurora/internal/netback"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

// TestCompactDeltaHashesEachPageOnce replicates a group to three
// links and counts SHA-256 page hashes: the sender hashes each captured
// page once however many links encode it, and each receiver hashes
// each linked page once however many lookups its block index serves.
func TestCompactDeltaHashesEachPageOnce(t *testing.T) {
	clock := storage.NewClock()
	k := kernel.NewWith(clock, vm.NewPhysMem(0))
	o := core.NewOrchestrator(k)
	o.FlushWorkers = 1
	defer o.Close()
	p, err := k.Spawn(0, "hash-once")
	if err != nil {
		t.Fatal(err)
	}
	const heapPages = 32
	if _, err := p.Sbrk(heapPages * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	page := func(seed int) []byte {
		b := make([]byte, vm.PageSize)
		for i := range b {
			b[i] = byte(seed*131 + i*7 + i>>8)
		}
		return b
	}
	write := func(pg, seed int) {
		if err := p.WriteMem(p.HeapBase()+vm.Addr(pg*vm.PageSize), page(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for pg := 0; pg < heapPages; pg++ {
		write(pg, pg+1)
	}
	g, err := o.Persist("hash-once", p)
	if err != nil {
		t.Fatal(err)
	}

	type link struct {
		rb   *netback.ReplicaBackend
		recv *netback.Receiver
		conn net.Conn
		done chan error
	}
	var links []*link
	for i := 0; i < 3; i++ {
		l := &link{
			rb:   netback.NewReplicaBackend(clock),
			recv: netback.NewReceiver(vm.NewPhysMem(0), storage.NewClock()),
			done: make(chan error, 1),
		}
		local, remote := net.Pipe()
		l.conn = local
		go func() {
			_, err := l.recv.ServeReplica(remote)
			l.done <- err
		}()
		if _, err := l.rb.Connect(local, g.ID); err != nil {
			t.Fatal(err)
		}
		o.Attach(g, l.rb)
		links = append(links, l)
	}
	checkpoint := func(full bool) *core.Image {
		t.Helper()
		if _, err := o.Checkpoint(g, core.CheckpointOpts{Full: full}); err != nil {
			t.Fatal(err)
		}
		if err := o.Sync(g); err != nil {
			t.Fatal(err)
		}
		return g.LastImage()
	}
	hashes := func() int64 { return core.PageHashCount() }

	// Epoch 1 carries no refs, so no receiver looks anything up yet:
	// only the sender hashes, once for all three links.
	c0 := hashes()
	n1 := int64(checkpoint(true).PageCount())
	if d := hashes() - c0; d != n1 {
		t.Fatalf("three links hashed the %d pages of epoch 1 %d times, want %d", n1, d, n1)
	}

	// Epoch 2 rewrites eight pages, four with content every replica
	// holds: the sender hashes the delta once, and resolving its refs
	// makes each receiver index epoch 1 once.
	var fresh objstore.Hash
	for i := 0; i < 8; i++ {
		seed := 1000 + i
		if i%2 == 0 {
			seed = 20 + i // the content of page 19+i at epoch 1
		}
		write(i, seed)
		if i == 1 {
			fresh = core.PageContentHash(page(seed))
		}
	}
	c1 := hashes()
	n2 := int64(checkpoint(false).PageCount())
	if d, want := hashes()-c1, n2+3*n1; d != want {
		t.Fatalf("epoch 2 (%d pages) cost %d hashes, want %d (sender once, each receiver indexing epoch 1 once)", n2, d, want)
	}
	for i, l := range links {
		if _, skipped, _ := l.rb.DeltaStats(); skipped == 0 {
			t.Fatalf("link %d elided no pages", i)
		}
	}

	// Lookups index epoch 2 on each receiver once; repeats hash nothing.
	c2 := hashes()
	for round := 0; round < 3; round++ {
		for i, l := range links {
			if _, ok := l.recv.FetchBlock(fresh); !ok {
				t.Fatalf("receiver %d cannot serve a page of epoch 2", i)
			}
		}
	}
	if d, want := hashes()-c2, 3*n2; d != want {
		t.Fatalf("lookups cost %d hashes, want %d", d, want)
	}

	for _, l := range links {
		l.conn.Close()
		if err := <-l.done; err != nil {
			t.Fatal(err)
		}
	}
}
