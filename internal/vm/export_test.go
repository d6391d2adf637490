package vm

// Test hooks into the translation cache and the page table.

// flushTLB empties the space's translation cache, so the next access
// to any page misses: tests use it to force the slow path.
func flushTLB(as *AddressSpace) {
	for i := range as.tlb {
		as.tlb[i].Store(nil)
	}
}

// tlbCached reports whether an access to addr would hit the cache.
func tlbCached(as *AddressSpace, addr Addr) bool {
	page := addr.PageBase()
	e := as.tlb[tlbSlot(page)].Load()
	return e != nil && e.page == page && e.gen == as.gen.Load()
}

// pteBits is the observable state of one installed PTE.
type pteBits struct{ writable, accessed bool }

// pteSnapshot returns every installed PTE's bits by page base.
func pteSnapshot(as *AddressSpace) map[Addr]pteBits {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make(map[Addr]pteBits, len(as.pt))
	for a, e := range as.pt {
		out[a] = pteBits{e.writable.Load(), e.accessed.Load()}
	}
	return out
}
