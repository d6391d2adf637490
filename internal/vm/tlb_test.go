package vm

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"aurora/internal/storage"
)

// cacheRead reads addr twice, so the second read fills the translation
// cache (the first installs the PTE), and fails unless it is cached.
func cacheRead(t *testing.T, as *AddressSpace, addr Addr, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	for i := 0; i < 2; i++ {
		if err := as.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	if !tlbCached(as, addr) {
		t.Fatalf("%#x is not in the translation cache after two reads", addr)
	}
	return buf
}

func TestTLBSlotsSeparateTextAndMmapBase(t *testing.T) {
	if tlbSlot(0x40_0000) == tlbSlot(0x4000_0000) {
		t.Fatal("text base and mmap base share a translation-cache slot")
	}
}

func TestTLBUnmapInvalidates(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "heap")
	if err := as.Write(m.Start, []byte("mapped")); err != nil {
		t.Fatal(err)
	}
	cacheRead(t, as, m.Start, 6)
	if err := as.Unmap(m.Start, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Read(m.Start, make([]byte, 6)); err != ErrNoMapping {
		t.Fatalf("read after Unmap: %v, want ErrNoMapping", err)
	}
}

func TestTLBProtectInvalidates(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "heap")
	if err := as.Write(m.Start, []byte("data")); err != nil {
		t.Fatal(err)
	}
	cacheRead(t, as, m.Start, 4)
	if err := as.Protect(m.Start, ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.Read(m.Start, make([]byte, 4)); err != ErrProtection {
		t.Fatalf("read after revoking read: %v, want ErrProtection", err)
	}

	// Revoking write: a cached translation must not let a write through.
	if err := as.Protect(m.Start, ProtRead); err != nil {
		t.Fatal(err)
	}
	cacheRead(t, as, m.Start, 4)
	if err := as.Write(m.Start, []byte("nope")); err != ErrProtection {
		t.Fatalf("write after revoking write: %v, want ErrProtection", err)
	}
}

func TestTLBForkInvalidates(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "data")
	if err := as.Write(m.Start, []byte("original")); err != nil {
		t.Fatal(err)
	}
	cacheRead(t, as, m.Start, 8)
	child := as.Fork()

	// The parent's mapping now points at a fresh shadow: its next write
	// must copy up into that shadow, not land in the object the child
	// still reads through.
	if err := as.Write(m.Start, []byte("parentw!")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := child.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("child sees %q after the parent's post-fork write", got)
	}
	if err := as.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parentw!" {
		t.Fatalf("parent reads %q, want its own write", got)
	}
	if h := as.Find(m.Start).Obj.Heat(0); h == 0 {
		t.Fatal("parent's accesses did not reach its new shadow object")
	}
}

func TestTLBPageoutInvalidates(t *testing.T) {
	as, m, pg, _ := pagerFixture(t)
	meter := as.Meter()
	if err := as.Write(m.Start, []byte("swapme")); err != nil {
		t.Fatal(err)
	}
	cacheRead(t, as, m.Start, 6)
	if n, err := pg.Reclaim(1); err != nil || n != 1 {
		t.Fatalf("Reclaim = %d, %v; want 1 page evicted", n, err)
	}
	err := as.Read(m.Start, make([]byte, 6))
	var sf *SwapFault
	if !errors.As(err, &sf) {
		t.Fatalf("read of an evicted page: %v, want a SwapFault", err)
	}
	if err := pg.SwapIn(sf.Obj, sf.Page); err != nil {
		t.Fatal(err)
	}

	// Pageout dropped the PTE, so the first read after swap-in is a
	// soft fault that installs a new one.
	faults, pteOps := meter.Faults.Load(), meter.PTEOps.Load()
	got := make([]byte, 6)
	if err := as.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "swapme" {
		t.Fatalf("read %q after swap-in", got)
	}
	if df, dp := meter.Faults.Load()-faults, meter.PTEOps.Load()-pteOps; df != 1 || dp != 1 {
		t.Fatalf("read after swap-in charged %d faults and %d PTE ops, want 1 and 1", df, dp)
	}
	if bits, ok := pteSnapshot(as)[m.Start]; !ok || !bits.accessed {
		t.Fatalf("no referenced PTE for the page after swap-in: %+v, %v", bits, ok)
	}
}

func TestTLBSeesCowByAnotherSpace(t *testing.T) {
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	reader := NewAddressSpace(pm, meter)
	writer := NewAddressSpace(pm, meter)
	obj := NewObject("shm", PageSize)
	mr, err := reader.Map(0x1000_0000, PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
	if err != nil {
		t.Fatal(err)
	}
	mw, err := writer.Map(0x2000_0000, PageSize, ProtRead|ProtWrite, obj, 0, true, "shm")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(mw.Start, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := cacheRead(t, reader, mr.Start, 6); string(got) != "before" {
		t.Fatalf("reader sees %q", got)
	}

	cs := obj.BeginCheckpoint(1, true)
	reader.ProtectObject(obj, cs.Pages)
	writer.ProtectObject(obj, cs.Pages)
	defer cs.Release(pm)
	if err := writer.Write(mw.Start, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	if meter.CowFaults.Load() != 1 {
		t.Fatalf("cow faults = %d, want 1", meter.CowFaults.Load())
	}
	if !tlbCached(reader, mr.Start) {
		t.Fatal("a COW fault in another space dropped the reader's translation")
	}
	got := make([]byte, 6)
	if err := reader.Read(mr.Start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "after!" {
		t.Fatalf("cached reader sees %q after another space's COW fault", got)
	}
}

// mapSource is a lazy-restore page source backed by a map.
type mapSource map[int64][]byte

func (s mapSource) FetchPage(idx int64) ([]byte, error) { return s[idx], nil }
func (s mapSource) HasPage(idx int64) bool              { _, ok := s[idx]; return ok }
func (s mapSource) Pages() []int64 {
	out := make([]int64, 0, len(s))
	for idx := range s {
		out = append(out, idx)
	}
	return out
}

// tlbWorld is one address space driven through a fixed access script,
// either with the translation cache or with a miss forced on every
// access.
type tlbWorld struct {
	t     *testing.T
	as    *AddressSpace
	meter *Meter
	objs  []*Object
	miss  bool
	hits  int
	reads []byte
}

func newTLBWorld(t *testing.T, miss bool) *tlbWorld {
	pm := NewPhysMem(0)
	meter := NewMeter(storage.NewClock())
	w := &tlbWorld{t: t, as: NewAddressSpace(pm, meter), meter: meter, miss: miss}
	text := NewObject("text", 2*PageSize)
	lazy := NewObject("lazy", 2*PageSize)
	lazy.SetSource(mapSource{0: bytes.Repeat([]byte{'L'}, PageSize), 1: bytes.Repeat([]byte{'M'}, PageSize)})
	for _, mp := range []struct {
		at    Addr
		obj   *Object
		pages int64
	}{
		{0x40_0000, text, 2},
		{0x1000_0000, NewObject("heap", 8*PageSize), 8},
		{0x4000_0000, lazy, 2},
	} {
		if _, err := w.as.Map(mp.at, mp.pages*PageSize, ProtRead|ProtWrite, mp.obj, 0, false, mp.obj.Name); err != nil {
			t.Fatal(err)
		}
		w.objs = append(w.objs, mp.obj)
		mp.obj.Deref()
	}
	return w
}

func (w *tlbWorld) prepare(addr Addr) {
	if w.miss {
		flushTLB(w.as)
	} else if tlbCached(w.as, addr) {
		w.hits++
	}
}

func (w *tlbWorld) read(addr Addr, n int) {
	w.prepare(addr)
	buf := make([]byte, n)
	if err := w.as.Read(addr, buf); err != nil {
		w.t.Fatal(err)
	}
	w.reads = append(w.reads, buf...)
}

func (w *tlbWorld) write(addr Addr, b byte) {
	w.prepare(addr)
	if err := w.as.Write(addr, bytes.Repeat([]byte{b}, 16)); err != nil {
		w.t.Fatal(err)
	}
}

// script touches every kind of page: resident anonymous pages, a
// zero-fill page, lazy-source page-ins, COW faults after a barrier,
// the write fast path, and reads after the clock cleared the
// referenced bits.
func (w *tlbWorld) script() {
	const text, heap, lazy = Addr(0x40_0000), Addr(0x1000_0000), Addr(0x4000_0000)
	w.write(text, 'T')
	for i := 0; i < 20; i++ {
		w.read(text+Addr(16*i), 16)
	}
	for p := Addr(0); p < 6; p++ {
		w.write(heap+p*PageSize, byte('a'+p))
	}
	for round := 0; round < 3; round++ {
		for p := Addr(0); p < 7; p++ { // page 6 is never written: zero fill
			w.read(heap+p*PageSize+8, 24)
		}
		w.read(lazy+Addr(round)*64, 32)
		w.read(lazy+PageSize+Addr(round)*64, 32)
	}
	heapObj := w.objs[1]
	cs := heapObj.BeginCheckpoint(1, true)
	w.as.ProtectObject(heapObj, cs.Pages)
	for i := 0; i < 3; i++ {
		w.write(heap+2*PageSize, byte('x'+i)) // COW fault, then fast path
		w.read(heap+2*PageSize, 16)
		w.read(text, 16)
	}
	for _, obj := range w.objs {
		for idx := int64(0); idx < 8; idx++ {
			w.as.AccessedAndClear(obj, idx)
		}
	}
	for p := Addr(0); p < 4; p++ {
		w.read(heap+p*PageSize, 8)
	}
	w.write(lazy, 'w')
	w.read(lazy, 16)
	cs.Release(w.as.PhysMem())
}

// tlbState is everything a hit must leave exactly as a miss would.
type tlbState struct {
	Reads   []byte
	Heat    map[string]uint32
	Dirty   map[string][]int64
	PTEs    map[Addr]pteBits
	Counter [8]int64
	Clock   time.Duration
}

func (w *tlbWorld) state() tlbState {
	s := tlbState{Reads: w.reads, Heat: map[string]uint32{}, Dirty: map[string][]int64{}, PTEs: pteSnapshot(w.as)}
	for _, obj := range w.objs {
		for idx := int64(0); idx < 8; idx++ {
			if h := obj.Heat(idx); h != 0 {
				s.Heat[obj.Name+string(rune('0'+idx))] = h
			}
		}
		d := obj.DirtyPages()
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		s.Dirty[obj.Name] = d
	}
	m := w.meter
	s.Counter = [8]int64{m.Instrs.Load(), m.PTEOps.Load(), m.Faults.Load(), m.CowFaults.Load(),
		m.PageCopies.Load(), m.PageIns.Load(), m.PageOuts.Load(), m.ZeroFills.Load()}
	s.Clock = m.Clock.Now()
	return s
}

func TestTLBHitsMatchForcedMisses(t *testing.T) {
	cached, missed := newTLBWorld(t, false), newTLBWorld(t, true)
	cached.script()
	missed.script()
	if cached.hits < 40 {
		t.Fatalf("only %d accesses hit the translation cache", cached.hits)
	}
	if missed.hits != 0 {
		t.Fatalf("forced-miss world hit %d times", missed.hits)
	}
	got, want := cached.state(), missed.state()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache hits changed observable state:\nhits:   %+v\nmisses: %+v", got, want)
	}
}

func TestTLBReadHitDoesNotAllocate(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "heap")
	if err := as.Write(m.Start, []byte("sixteen bytes!!!")); err != nil {
		t.Fatal(err)
	}
	buf := cacheRead(t, as, m.Start, 16)
	allocs := testing.AllocsPerRun(200, func() {
		if err := as.Read(m.Start, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cached read makes %v allocations, want 0", allocs)
	}
}

// TestAccessedBitConcurrentWithClock runs the data path against the
// clock's referenced-bit probe; under -race it fails if the bit is
// touched without synchronization.
func TestAccessedBitConcurrentWithClock(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(2*PageSize, ProtRead|ProtWrite, false, "heap")
	if err := as.Write(m.Start, make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		for i := 0; i < 20000; i++ {
			if err := as.Read(m.Start+Addr(i%2)*PageSize, buf); err != nil {
				t.Error(err)
				return
			}
			if err := as.Write(m.Start+Addr(i%2)*PageSize, buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			as.AccessedAndClear(m.Obj, int64(i%2))
		}
	}()
	wg.Wait()
}

// TestTLBConcurrentInvalidation reads through the cache while another
// goroutine revokes and restores read access and forks the space:
// every read returns the page's bytes or ErrProtection, and -race
// checks that hits and invalidations share no unsynchronized state.
func TestTLBConcurrentInvalidation(t *testing.T) {
	as, _, _ := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "heap")
	want := []byte("stable contents!")
	if err := as.Write(m.Start, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			as.Protect(m.Start, ProtWrite)
			as.Protect(m.Start, ProtRead|ProtWrite)
			if i%100 == 0 {
				as.Fork()
			}
		}
	}()
	got := make([]byte, len(want))
	for i := 0; i < 20000; i++ {
		err := as.Read(m.Start, got)
		if err == ErrProtection {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %q, want %q", got, want)
		}
	}
	wg.Wait()
}

// TestWriteFastPathHonorsObjectState drives the one-lock write fast
// path with a writable PTE the object state contradicts: a page the
// barrier protected before this space's PTEs were downgraded must
// still COW, and a page whose checkpoint was aborted must still be
// marked dirty.
func TestWriteFastPathHonorsObjectState(t *testing.T) {
	as, pm, meter := testSpace(t)
	m, _ := as.MapAnon(PageSize, ProtRead|ProtWrite, false, "heap")
	if err := as.Write(m.Start, []byte("epoch0")); err != nil {
		t.Fatal(err)
	}
	cs := m.Obj.BeginCheckpoint(1, false) // no ProtectObject: PTE stays writable
	defer cs.Release(pm)
	if err := as.Write(m.Start, []byte("epoch1")); err != nil {
		t.Fatal(err)
	}
	if meter.CowFaults.Load() != 1 || !bytes.HasPrefix(cs.Pages[0].Data, []byte("epoch0")) {
		t.Fatalf("write to a protected page: %d COW faults, checkpoint holds %q",
			meter.CowFaults.Load(), cs.Pages[0].Data[:6])
	}

	aborted := m.Obj.BeginCheckpoint(2, false)
	m.Obj.Unprotect(0)
	aborted.Release(pm)
	if err := as.Write(m.Start, []byte("epoch2")); err != nil {
		t.Fatal(err)
	}
	if m.Obj.DirtyCount() != 1 {
		t.Fatalf("fast-path write left %d dirty pages, want 1", m.Obj.DirtyCount())
	}
}

func TestWriteToSwappedPageFaults(t *testing.T) {
	as, m, pg, _ := pagerFixture(t)
	if err := as.Write(m.Start, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	if n, err := pg.Reclaim(1); err != nil || n != 1 {
		t.Fatalf("Reclaim = %d, %v; want 1 page evicted", n, err)
	}
	err := as.Write(m.Start, []byte("K"))
	var sf *SwapFault
	if !errors.As(err, &sf) || !sf.Write {
		t.Fatalf("write to an evicted page: %v, want a write SwapFault", err)
	}
	if err := pg.SwapIn(sf.Obj, sf.Page); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(m.Start, []byte("K")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := as.Read(m.Start, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "Keep me" {
		t.Fatalf("page reads %q after a write through swap", got)
	}
}
