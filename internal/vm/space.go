package vm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

var spaceIDs atomic.Uint64

// Mapping is one entry of an address space: a virtual address range
// backed by a window into a VM object.
type Mapping struct {
	Start  Addr
	End    Addr // exclusive
	Obj    *Object
	Off    int64 // byte offset of Start within Obj
	Prot   Prot
	Shared bool // shared mapping: writes go to the object for all mappers
	Name   string
	// NoPersist excludes the mapping from checkpoints (sls_mctl):
	// scratch regions the application can rebuild are skipped to
	// shrink images and stop time.
	NoPersist bool
	// Restore is the sls_mctl lazy-restore policy hint for this
	// mapping's pages.
	Restore RestorePolicy
}

// RestorePolicy is an application hint (sls_mctl) for how a mapping's
// pages should come back at restore time.
type RestorePolicy uint8

// Restore policies.
const (
	// RestoreDefault follows the orchestrator-wide choice.
	RestoreDefault RestorePolicy = iota
	// RestoreEager pages everything in up front (latency-critical
	// regions: index structures, hot code).
	RestoreEager
	// RestoreLazy always faults pages in on demand (cold bulk data).
	RestoreLazy
)

// Len returns the mapping's length in bytes.
func (m *Mapping) Len() int64 { return int64(m.End - m.Start) }

// pageIndex translates a virtual address inside the mapping to a page
// index within the backing object.
func (m *Mapping) pageIndex(a Addr) int64 {
	return (int64(a.PageBase()-m.Start) + m.Off) >> PageShift
}

// pte is a simulated page-table entry. The data path always reads
// through the VM object (so shared pages can be replaced atomically for
// all mappers, as a kernel pmap would); the pte tracks per-address-
// space permission and the referenced bit used by the clock algorithm.
// The two bits are atomic: the data path reads and sets them without
// as.mu, while the barrier and the clock probe change them under it.
type pte struct {
	present  bool
	writable atomic.Bool
	accessed atomic.Bool
}

// markAccessed sets the referenced bit. It stores only when the bit
// is clear: the bit is set on nearly every access, and an atomic store
// costs a full fence where a load costs nothing.
func (e *pte) markAccessed() {
	if !e.accessed.Load() {
		e.accessed.Store(true)
	}
}

// tlbBits sizes the translation cache: 1<<tlbBits direct-mapped slots.
const tlbBits = 4

// tlbEntry is one immutable translation snapshot, taken under as.mu by
// a read fault that found a PTE already installed. It stays valid
// while the space's generation still equals gen. It holds the object,
// never the frame: frames are always looked up under the object lock,
// so a COW fault by another mapper of the object is seen at once.
type tlbEntry struct {
	page Addr
	prot Prot
	obj  *Object
	idx  int64
	pte  *pte
	gen  uint64
}

// tlbSlot hashes a page to its cache slot. The page number is
// multiplied through so that text at 0x40_0000 and the mmap area at
// 0x4000_0000, equal in their low bits, land in different slots.
func tlbSlot(page Addr) uint64 {
	return (uint64(page>>PageShift) * 0x9E37_79B9_7F4A_7C15) >> (64 - tlbBits)
}

// AddressSpace is a simulated process address space: an ordered set of
// mappings plus a page table, fronted by a small translation cache.
type AddressSpace struct {
	ID uint64

	mu   sync.Mutex
	maps []*Mapping // sorted by Start, non-overlapping
	pt   map[Addr]*pte

	// gen is bumped under mu by every change a cached translation
	// could miss: the mapping list, a mapping's Prot, Obj or End, or
	// the removal of a PTE. Entries of an older generation are dead.
	gen atomic.Uint64
	tlb [1 << tlbBits]atomic.Pointer[tlbEntry]

	pm    *PhysMem
	meter *Meter
}

// NewAddressSpace creates an empty address space.
func NewAddressSpace(pm *PhysMem, meter *Meter) *AddressSpace {
	return &AddressSpace{
		ID:    spaceIDs.Add(1),
		pt:    make(map[Addr]*pte),
		pm:    pm,
		meter: meter,
	}
}

// Meter returns the cost meter shared by this space.
func (as *AddressSpace) Meter() *Meter { return as.meter }

// PhysMem returns the frame allocator backing this space.
func (as *AddressSpace) PhysMem() *PhysMem { return as.pm }

// Map installs a mapping of length bytes of obj at start (both
// page-aligned; length is rounded up). If start is zero, a free range
// above 0x4000_0000 is chosen. Returns the mapped range.
func (as *AddressSpace) Map(start Addr, length int64, prot Prot, obj *Object, off int64, shared bool, name string) (*Mapping, error) {
	if length <= 0 || off < 0 || off&PageMask != 0 || start&Addr(PageMask) != 0 {
		return nil, ErrBadRange
	}
	length = RoundUpPage(length)

	as.mu.Lock()
	defer as.mu.Unlock()
	if start == 0 {
		start = as.findFreeLocked(length)
	}
	end := start + Addr(length)
	if end <= start {
		return nil, ErrBadRange
	}
	for _, m := range as.maps {
		if start < m.End && m.Start < end {
			return nil, ErrMapOverlap
		}
	}
	obj.Ref()
	obj.Grow(off + length)
	m := &Mapping{Start: start, End: end, Obj: obj, Off: off, Prot: prot, Shared: shared, Name: name}
	as.maps = append(as.maps, m)
	sort.Slice(as.maps, func(i, j int) bool { return as.maps[i].Start < as.maps[j].Start })
	as.gen.Add(1)
	return m, nil
}

// MapAnon creates and maps a fresh anonymous object.
func (as *AddressSpace) MapAnon(length int64, prot Prot, shared bool, name string) (*Mapping, error) {
	obj := NewObject(name, RoundUpPage(length))
	m, err := as.Map(0, length, prot, obj, 0, shared, name)
	// Map took its own reference; drop the construction reference.
	obj.Deref()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// findFreeLocked picks the lowest free range of the given length at or
// above the mmap base.
func (as *AddressSpace) findFreeLocked(length int64) Addr {
	const mmapBase = Addr(0x4000_0000)
	candidate := mmapBase
	for _, m := range as.maps {
		if m.End <= candidate {
			continue
		}
		if m.Start >= candidate+Addr(length) {
			break
		}
		candidate = m.End
	}
	return candidate
}

// Unmap removes all mappings fully contained in [start, start+length).
// Partial unmaps of a mapping are not supported (as in early mmap
// implementations); attempting one returns ErrBadRange.
func (as *AddressSpace) Unmap(start Addr, length int64) error {
	end := start + Addr(RoundUpPage(length))
	as.mu.Lock()
	defer as.mu.Unlock()
	kept := as.maps[:0]
	var removed []*Mapping
	for _, m := range as.maps {
		switch {
		case m.Start >= start && m.End <= end:
			removed = append(removed, m)
		case m.Start < end && start < m.End:
			as.maps = append(kept, as.maps[len(kept):]...)
			return ErrBadRange
		default:
			kept = append(kept, m)
		}
	}
	as.maps = kept
	as.gen.Add(1)
	for _, m := range removed {
		for a := m.Start; a < m.End; a += PageSize {
			delete(as.pt, a)
		}
		if m.Obj.Deref() {
			m.Obj.ReleaseAll(as.pm)
		}
	}
	return nil
}

// Find returns the mapping containing addr, or nil.
func (as *AddressSpace) Find(addr Addr) *Mapping {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.findLocked(addr)
}

func (as *AddressSpace) findLocked(addr Addr) *Mapping {
	i := sort.Search(len(as.maps), func(i int) bool { return as.maps[i].End > addr })
	if i < len(as.maps) && as.maps[i].Start <= addr {
		return as.maps[i]
	}
	return nil
}

// Mappings returns a snapshot of the mapping list.
func (as *AddressSpace) Mappings() []*Mapping {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]*Mapping, len(as.maps))
	copy(out, as.maps)
	return out
}

// Protect changes the protection of the mapping starting at start.
func (as *AddressSpace) Protect(start Addr, prot Prot) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, m := range as.maps {
		if m.Start == start {
			m.Prot = prot
			as.gen.Add(1)
			// Downgrade any cached writable PTEs.
			if prot&ProtWrite == 0 {
				for a := m.Start; a < m.End; a += PageSize {
					if p, ok := as.pt[a]; ok && p.writable.Swap(false) {
						as.meter.ChargePTE(1)
					}
				}
			}
			return nil
		}
	}
	return ErrNoMapping
}

// GrowMapping widens m to end at end, rounded up to a page, and grows
// its object to back the new range; it never shrinks. This is the
// heap's brk path.
func (as *AddressSpace) GrowMapping(m *Mapping, end Addr) {
	end = Addr(RoundUpPage(int64(end)))
	as.mu.Lock()
	defer as.mu.Unlock()
	if end <= m.End {
		return
	}
	m.Obj.Grow(m.Off + int64(end-m.Start))
	m.End = end
	as.gen.Add(1)
}

// Read copies len(p) bytes from the address space starting at addr.
func (as *AddressSpace) Read(addr Addr, p []byte) error {
	return as.access(addr, p, false)
}

// Write copies p into the address space starting at addr.
func (as *AddressSpace) Write(addr Addr, p []byte) error {
	return as.access(addr, p, true)
}

// access is the unified data path: it walks pages, faulting as needed.
// For writes, the fault returns with the object's write bracket held
// (Object.BeginWrite) so the permission check and the data copy are
// atomic with respect to a serialization barrier, as they would be at
// a real MMU; the bracket is released once the copy has landed.
func (as *AddressSpace) access(addr Addr, p []byte, write bool) error {
	for n := 0; n < len(p); {
		pageBase := (addr + Addr(n)).PageBase()
		po := (addr + Addr(n)).PageOffset()
		span := int(PageSize - po)
		if span > len(p)-n {
			span = len(p) - n
		}
		frame, obj, err := as.fault(pageBase, write)
		if err != nil {
			return err
		}
		if write {
			copy(frame.Data[po:po+int64(span)], p[n:n+span])
			obj.EndWrite()
		} else if frame != nil {
			copy(p[n:n+span], frame.Data[po:po+int64(span)])
		} else {
			zero(p[n : n+span]) // unresident anon page reads as zero
		}
		n += span
	}
	return nil
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// fault resolves one page access, servicing faults. For reads of
// unresident anonymous pages it returns (nil, nil, nil): the page
// reads as zero without allocating a frame. For successful writes the
// object is returned with its write bracket held (Object.BeginWrite);
// the caller must EndWrite after copying the data.
func (as *AddressSpace) fault(pageBase Addr, write bool) (*Frame, *Object, error) {
	obj, idx, entry, err := as.translate(pageBase, write)
	if err != nil {
		return nil, nil, err
	}

	if !write {
		// Read path: soft fault to install the PTE, then read through
		// the object (possibly its shadow chain).
		f := obj.lookupTouch(idx)
		if f == nil {
			if slot, swapped := obj.SwapSlot(idx); swapped {
				return nil, nil, &SwapFault{Obj: obj, Page: idx, Slot: slot}
			}
			// Lazy restore: pull the page from the checkpoint image.
			lf, err := obj.fetchFromSource(as.pm, idx, as.meter)
			if err != nil {
				return nil, nil, err
			}
			if lf != nil {
				as.meter.ChargeFault()
				as.installPTE(pageBase, false)
				obj.Touch(idx)
				return lf, nil, nil
			}
			return nil, nil, nil // zero-fill read, no allocation
		}
		if entry == nil {
			as.installPTE(pageBase, false)
			as.meter.ChargeFault()
		} else {
			entry.markAccessed()
		}
		return f, nil, nil
	}

	// Write path: from here to the caller's data copy a serialization
	// barrier must not intervene, or the copy could mutate a frame the
	// barrier already captured.
	obj.BeginWrite()
	// Fast path: a writable PTE may still be stale, because a barrier
	// can COW-protect the page after the PTE was cached; writeAccess
	// checks the object's protection under its lock.
	f, slot, swapped := obj.writeAccess(idx, entry != nil && entry.writable.Load())
	if swapped {
		obj.EndWrite()
		return nil, nil, &SwapFault{Obj: obj, Page: idx, Slot: slot, Write: true}
	}
	if f != nil {
		entry.markAccessed()
		return f, obj, nil
	}

	as.meter.ChargeFault()

	// COW-protected page: Aurora's shared-COW rule.
	if obj.IsProtected(idx) {
		f, err := obj.CowFault(as.pm, idx, as.meter)
		if err != nil {
			obj.EndWrite()
			return nil, nil, err
		}
		as.installPTE(pageBase, true)
		obj.Touch(idx)
		return f, obj, nil
	}

	// Resident in this object, or shadow-chain / zero-fill allocation.
	f, _, err = obj.EnsurePage(as.pm, idx, as.meter)
	if err != nil {
		obj.EndWrite()
		return nil, nil, err
	}
	obj.MarkDirty(idx)
	obj.Touch(idx)
	as.installPTE(pageBase, true)
	return f, obj, nil
}

// translate resolves pageBase to its object page and installed PTE
// (nil when there is none), enforcing the mapping's protection. A hit
// in the translation cache takes no lock and reads no Mapping field;
// a miss searches the mapping list under as.mu. Only a read that finds
// a PTE installed fills the cache: writes (and hits) reuse what reads
// cached, so a store sweeping fresh pages allocates no entries.
func (as *AddressSpace) translate(pageBase Addr, write bool) (*Object, int64, *pte, error) {
	slot := &as.tlb[tlbSlot(pageBase)]
	if e := slot.Load(); e != nil && e.page == pageBase && e.gen == as.gen.Load() {
		return e.obj, e.idx, e.pte, checkProt(e.prot, write)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	m := as.findLocked(pageBase)
	if m == nil {
		return nil, 0, nil, ErrNoMapping
	}
	if err := checkProt(m.Prot, write); err != nil {
		return nil, 0, nil, err
	}
	idx := m.pageIndex(pageBase)
	entry := as.pt[pageBase]
	if entry != nil && !write {
		slot.Store(&tlbEntry{page: pageBase, prot: m.Prot, obj: m.Obj, idx: idx, pte: entry, gen: as.gen.Load()})
	}
	return m.Obj, idx, entry, nil
}

// checkProt reports whether prot permits a read or a write.
func checkProt(prot Prot, write bool) error {
	if write && prot&ProtWrite == 0 || !write && prot&ProtRead == 0 {
		return ErrProtection
	}
	return nil
}

func (as *AddressSpace) installPTE(pageBase Addr, writable bool) {
	as.mu.Lock()
	e, ok := as.pt[pageBase]
	if !ok {
		e = &pte{}
		as.pt[pageBase] = e
	}
	e.present = true
	e.writable.Store(writable)
	e.accessed.Store(true)
	as.mu.Unlock()
	as.meter.ChargePTE(1)
}

// ProtectObject clears the writable bit of every cached PTE that maps
// one of the given object pages, charging one PTE operation per entry
// changed. This is the address-space half of the serialization
// barrier; it returns the number of PTEs manipulated.
func (as *AddressSpace) ProtectObject(obj *Object, pages map[int64]*Frame) int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var ops int64
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		for a := m.Start; a < m.End; a += PageSize {
			idx := m.pageIndex(a)
			if _, ok := pages[idx]; !ok {
				continue
			}
			if e, ok := as.pt[a]; ok && e.writable.Swap(false) {
				ops++
			}
		}
	}
	as.meter.ChargeProtect(ops)
	return ops
}

// InvalidateObjectPage drops any PTE mapping the given object page;
// used by the pageout daemon when evicting to swap.
func (as *AddressSpace) InvalidateObjectPage(obj *Object, idx int64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, m := range as.maps {
		if m.Obj != obj {
			continue
		}
		base := m.Start + Addr((idx<<PageShift)-m.Off)
		if base >= m.Start && base < m.End {
			if _, ok := as.pt[base]; ok {
				delete(as.pt, base)
				as.gen.Add(1)
				as.meter.ChargePTE(1)
			}
		}
	}
}

// Objects returns the distinct objects mapped by this space.
func (as *AddressSpace) Objects() []*Object {
	as.mu.Lock()
	defer as.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []*Object
	for _, m := range as.maps {
		if !seen[m.Obj.ID] {
			seen[m.Obj.ID] = true
			out = append(out, m.Obj)
		}
	}
	return out
}

// Fork clones the address space with fork semantics: shared mappings
// alias the same object; private mappings get a shadow object so that
// writes in either copy COW privately (the standard mechanism whose
// shared-memory breakage Aurora's checkpoint COW avoids).
func (as *AddressSpace) Fork() *AddressSpace {
	as.mu.Lock()
	defer as.mu.Unlock()
	child := NewAddressSpace(as.pm, as.meter)
	for _, m := range as.maps {
		var obj *Object
		if m.Shared {
			obj = m.Obj
			obj.Ref()
		} else {
			obj = m.Obj.NewShadow()
			// The parent must also COW against the snapshot: replace
			// the parent's object with its own fresh shadow so both
			// sides see the pre-fork data and copy up on write.
			parentShadow := m.Obj.NewShadow()
			if m.Obj.Deref() {
				// unreachable: the two shadows hold references
				m.Obj.ReleaseAll(as.pm)
			}
			m.Obj = parentShadow
			// Invalidate parent's writable PTEs for this mapping: the
			// next write must COW up into the new shadow.
			for a := m.Start; a < m.End; a += PageSize {
				if e, ok := as.pt[a]; ok && e.writable.Swap(false) {
					as.meter.ChargePTE(1)
				}
			}
		}
		cm := &Mapping{Start: m.Start, End: m.End, Obj: obj, Off: m.Off, Prot: m.Prot, Shared: m.Shared, Name: m.Name}
		child.maps = append(child.maps, cm)
	}
	sort.Slice(child.maps, func(i, j int) bool { return child.maps[i].Start < child.maps[j].Start })
	as.gen.Add(1) // private mappings now point at new shadows
	return child
}

// ReleaseAll frees every resident page of the object. Called when an
// object's last reference is dropped.
func (o *Object) ReleaseAll(pm *PhysMem) {
	o.mu.Lock()
	pages := o.pages
	o.pages = make(map[int64]*Frame)
	shadow := o.shadow
	o.shadow = nil
	o.mu.Unlock()
	for _, f := range pages {
		pm.Free(f)
	}
	if shadow != nil && shadow.Deref() {
		shadow.ReleaseAll(pm)
	}
}

// String identifies the address space for debugging.
func (as *AddressSpace) String() string {
	return fmt.Sprintf("as%d(%d mappings)", as.ID, len(as.Mappings()))
}

// SwapFault is returned by the data path when an access touches a
// paged-out page; the kernel's pager services it and retries.
type SwapFault struct {
	Obj   *Object
	Page  int64
	Slot  int64
	Write bool
}

// Error implements error.
func (sf *SwapFault) Error() string {
	return fmt.Sprintf("vm: page %d of %s is on swap (slot %d)", sf.Page, sf.Obj, sf.Slot)
}
