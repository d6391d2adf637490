// Package core implements the SLS orchestrator: the paper's primary
// contribution. It maps kernel objects to the object store, manages
// persistence groups, runs serialization barriers for full and
// incremental checkpoints, flushes asynchronously, restores (eagerly
// or lazily, with clock-driven prefetch), enforces external
// consistency, and exposes the libsls developer API of Table 2.
package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"aurora/internal/codec"
	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// vmBit tags VM-object IDs in the store's OID space so they never
// collide with kernel OIDs (bit 62 is the file system's).
const vmBit = uint64(1) << 63

// MetaRec is one serialized kernel object inside an image.
type MetaRec struct {
	OID  uint64
	Kind kernel.Kind
	Data []byte
}

// MemImage is the captured memory of one VM object at one epoch.
type MemImage struct {
	ObjID uint64 // original vm.Object ID
	Name  string
	Size  int64
	// Pages holds the captured frames. The image owns one reference
	// per frame; restores COW-share against them without copying.
	Pages map[int64]*vm.Frame
	// SwapData holds pages that were on swap at the barrier, already
	// read back as bytes.
	SwapData map[int64][]byte
	// Refs holds pages still sitting in an object store: a lazily
	// loaded image (StoreBackend.LoadLazy) carries block references
	// instead of bytes, and restore attaches a demand-paging source
	// that reads — and hash-verifies — each block at first touch.
	Refs map[int64]objstore.BlockRef
	// Heat is the access-count snapshot driving restore prefetch.
	Heat map[int64]uint32
}

// PageCount returns the total captured page count.
func (mi *MemImage) PageCount() int { return len(mi.Pages) + len(mi.SwapData) + len(mi.Refs) }

// PageData returns one page's bytes regardless of where it was
// captured from, or nil.
func (mi *MemImage) PageData(idx int64) []byte {
	if f, ok := mi.Pages[idx]; ok {
		return f.Data
	}
	return mi.SwapData[idx]
}

// Image is a complete in-memory checkpoint of a persistence group:
// everything needed to recreate the application, on this machine or
// another.
type Image struct {
	Group uint64
	Epoch uint64
	Name  string
	Full  bool
	// Gen is the store generation (fencing token) of the group that
	// checkpointed this image. A store or replica whose fence for the
	// image's lineage has moved past Gen rejects the flush: the writer
	// is a stale primary superseded by a promotion.
	Gen uint64
	// Meta holds every serialized kernel object.
	Meta []MetaRec
	// Memory holds per-VM-object page captures. For incremental
	// images this is the dirty delta; Prev links the chain.
	Memory map[uint64]*MemImage
	// Roots are the process OIDs of the group.
	Roots []uint64
	// Prev is the previous image in the chain (nil for full images or
	// when the chain was consolidated).
	Prev *Image

	// source is the store backend a lazily loaded image demand-pages
	// from (nil for fully materialized images); peers are consulted,
	// by content hash, when the source fails a page read.
	source *StoreBackend
	peers  []BlockProvider

	mu       sync.Mutex
	released bool
	sources  []*lazyPageSource // demand-paging sources created by restore

	// hashed is set once, on first use, by pageHashes: the replication
	// path's content hash of every captured page.
	hashOnce sync.Once
	hashed   []hashedObject
}

// AddBlockPeer registers a peer block provider (another store, a
// netback replica) that demand paging may fail over to when the
// image's primary store cannot serve a page.
func (img *Image) AddBlockPeer(p BlockProvider) {
	img.mu.Lock()
	img.peers = append(img.peers, p)
	img.mu.Unlock()
}

// takeSources drains the lazy sources restore created for this image,
// so the restored group can adopt them (health binding, repair stats).
func (img *Image) takeSources() []*lazyPageSource {
	img.mu.Lock()
	defer img.mu.Unlock()
	out := img.sources
	img.sources = nil
	return out
}

// MetaBytes totals the metadata payload size.
func (img *Image) MetaBytes() int {
	n := 0
	for _, m := range img.Meta {
		n += len(m.Data)
	}
	return n
}

// PageCount totals captured pages across all objects.
func (img *Image) PageCount() int {
	n := 0
	for _, mi := range img.Memory {
		n += mi.PageCount()
	}
	return n
}

// FootprintBytes reports the memory this image pins while it waits to
// flush: captured frames and swap-page copies. Refs are excluded —
// they point at store blocks, not RAM. This is what the fleet's global
// memory budget charges per queued image.
func (img *Image) FootprintBytes() int64 {
	var n int64
	for _, mi := range img.Memory {
		n += int64(len(mi.Pages)+len(mi.SwapData)) * vm.PageSize
	}
	return n
}

// Release drops the image's frame references. Safe to call twice.
func (img *Image) Release(pm *vm.PhysMem) {
	img.mu.Lock()
	if img.released {
		img.mu.Unlock()
		return
	}
	img.released = true
	img.mu.Unlock()
	for _, mi := range img.Memory {
		for _, f := range mi.Pages {
			pm.Free(f)
		}
	}
}

// Released reports whether the image's frames have been returned to
// the allocator (store backends own the data now).
func (img *Image) Released() bool {
	img.mu.Lock()
	defer img.mu.Unlock()
	return img.released
}

// ResolveObject materializes an object's complete page map at this
// image, walking the incremental chain back to a full image.
func (img *Image) ResolveObject(objID uint64) map[int64][]byte {
	var chain []*MemImage
	for cur := img; cur != nil; cur = cur.Prev {
		if mi, ok := cur.Memory[objID]; ok {
			chain = append(chain, mi)
		}
		if cur.Full {
			break
		}
	}
	if len(chain) == 0 {
		return nil
	}
	out := make(map[int64][]byte)
	for i := len(chain) - 1; i >= 0; i-- {
		mi := chain[i]
		for idx, f := range mi.Pages {
			out[idx] = f.Data
		}
		for idx, d := range mi.SwapData {
			out[idx] = d
		}
	}
	return out
}

// ResolveMeta finds the newest metadata record for an OID along the
// image chain.
func (img *Image) ResolveMeta(oid uint64) (MetaRec, bool) {
	for cur := img; cur != nil; cur = cur.Prev {
		for _, m := range cur.Meta {
			if m.OID == oid {
				return m, true
			}
		}
		if cur.Full {
			break
		}
	}
	return MetaRec{}, false
}

// AllMeta returns the effective metadata set at this image: the newest
// record per OID along the chain.
func (img *Image) AllMeta() []MetaRec {
	seen := make(map[uint64]bool)
	var out []MetaRec
	for cur := img; cur != nil; cur = cur.Prev {
		for _, m := range cur.Meta {
			if !seen[m.OID] {
				seen[m.OID] = true
				out = append(out, m)
			}
		}
		if cur.Full {
			break
		}
	}
	return out
}

// ObjectIDs lists the VM objects captured along the chain.
func (img *Image) ObjectIDs() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for cur := img; cur != nil; cur = cur.Prev {
		for id := range cur.Memory {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		if cur.Full {
			break
		}
	}
	return out
}

// ResolveHeat finds the newest heat snapshot for an object.
func (img *Image) ResolveHeat(objID uint64) map[int64]uint32 {
	for cur := img; cur != nil; cur = cur.Prev {
		if mi, ok := cur.Memory[objID]; ok && len(mi.Heat) > 0 {
			return mi.Heat
		}
		if cur.Full {
			break
		}
	}
	return nil
}

// Encode serializes a *consolidated* view of the image chain (the
// effective state at this epoch) for network transfer or file export.
func (img *Image) Encode() []byte {
	e := codec.NewEncoder()
	e.U64(img.Group)
	e.U64(img.Epoch)
	e.U64(img.Gen)
	e.Str(img.Name)
	meta := img.AllMeta()
	e.U64(uint64(len(meta)))
	for _, m := range meta {
		e.U64(m.OID)
		e.U64(uint64(m.Kind))
		e.Bytes2(m.Data)
	}
	objIDs := img.ObjectIDs()
	e.U64(uint64(len(objIDs)))
	for _, id := range objIDs {
		pages := img.ResolveObject(id)
		var name string
		var size int64
		for cur := img; cur != nil; cur = cur.Prev {
			if mi, ok := cur.Memory[id]; ok {
				name, size = mi.Name, mi.Size
				break
			}
		}
		e.U64(id)
		e.Str(name)
		e.I64(size)
		e.U64(uint64(len(pages)))
		for idx, data := range pages {
			e.I64(idx)
			e.Bytes2(data)
		}
		encodeHeat(e, img.ResolveHeat(id))
	}
	e.U64Slice(img.Roots)
	return e.Bytes()
}

// DecodeImage parses an encoded image into a standalone full image.
// Page data is copied into fresh frames owned by the image.
func DecodeImage(payload []byte, pm *vm.PhysMem) (*Image, error) {
	d := codec.NewDecoder(payload)
	img := &Image{
		Group:  d.U64(),
		Epoch:  d.U64(),
		Gen:    d.U64(),
		Name:   d.Str(),
		Full:   true,
		Memory: make(map[uint64]*MemImage),
	}
	if _, err := decodeBody(d, img, pm, "image", false, nil); err != nil {
		return nil, err
	}
	return img, nil
}

// encodeHeat appends an object's heat snapshot.
func encodeHeat(e *codec.Encoder, heat map[int64]uint32) {
	e.U64(uint64(len(heat)))
	for idx, h := range heat {
		e.I64(idx)
		e.U32(h)
	}
}

// deltaSizeHint bounds the size of img's delta encoding whose page
// payloads total pageBytes, so the encoder fills one buffer instead of
// growing it by doubling.
func (img *Image) deltaSizeHint(pageBytes int) int {
	const v = binary.MaxVarintLen64
	n := 5*v + len(img.Name) + (len(img.Roots)+2)*v + pageBytes
	for _, m := range img.Meta {
		n += 3*v + len(m.Data)
	}
	for _, mi := range img.Memory {
		n += 5*v + len(mi.Name) + mi.PageCount()*(2*v+1) + len(mi.Heat)*2*v
	}
	return n
}

// EncodeDelta serializes only this image's own records (not the
// chain): the unit of continuous replication. The receiver links
// deltas onto its copy of the chain.
func (img *Image) EncodeDelta() []byte {
	e := codec.NewEncoder()
	e.Grow(img.deltaSizeHint(int(img.FootprintBytes())))
	e.U64(img.Group)
	e.U64(img.Epoch)
	e.U64(img.Gen)
	e.Str(img.Name)
	e.Bool(img.Full)
	e.U64(uint64(len(img.Meta)))
	for _, m := range img.Meta {
		e.U64(m.OID)
		e.U64(uint64(m.Kind))
		e.Bytes2(m.Data)
	}
	e.U64(uint64(len(img.Memory)))
	for id, mi := range img.Memory {
		e.U64(id)
		e.Str(mi.Name)
		e.I64(mi.Size)
		e.U64(uint64(mi.PageCount()))
		for idx, f := range mi.Pages {
			e.I64(idx)
			e.Bytes2(f.Data)
		}
		for idx, d := range mi.SwapData {
			e.I64(idx)
			e.Bytes2(d)
		}
		encodeHeat(e, mi.Heat)
	}
	e.U64Slice(img.Roots)
	return e.Bytes()
}

// newDeltaImage reads a delta's header into an empty image.
func newDeltaImage(d *codec.Decoder) *Image {
	return &Image{
		Group:  d.U64(),
		Epoch:  d.U64(),
		Gen:    d.U64(),
		Name:   d.Str(),
		Full:   d.Bool(),
		Memory: make(map[uint64]*MemImage),
	}
}

// DecodeDelta parses one replication delta. The caller links Prev.
func DecodeDelta(payload []byte, pm *vm.PhysMem) (*Image, error) {
	d := codec.NewDecoder(payload)
	img := newDeltaImage(d)
	if _, err := decodeBody(d, img, pm, "image delta", false, nil); err != nil {
		return nil, err
	}
	return img, nil
}

// decodeBody reads what follows an encoding's header — metadata
// records, memory objects, roots — into img, and checks the payload
// decoded cleanly. Page bytes are read as views of the payload
// (codec.Decoder.View) and copied straight into fresh frames, so each
// page is copied once and no view outlives the call. With compact set
// every page carries a literal/ref tag, and a ref's bytes come from
// resolve, whose result is likewise only copied into the frame; the
// hashes of refs resolve could not serve are returned in missing. On
// error img's frames are released.
func decodeBody(d *codec.Decoder, img *Image, pm *vm.PhysMem, what string, compact bool,
	resolve func(objstore.Hash) ([]byte, bool)) (missing []objstore.Hash, err error) {
	fail := func(err error) ([]objstore.Hash, error) {
		img.Release(pm)
		return nil, err
	}
	nMeta := d.U64()
	for i := uint64(0); i < nMeta && d.Err() == nil; i++ {
		img.Meta = append(img.Meta, MetaRec{OID: d.U64(), Kind: kernel.Kind(d.U64()), Data: d.Bytes2()})
	}
	nObjs := d.U64()
	for i := uint64(0); i < nObjs && d.Err() == nil; i++ {
		mi := &MemImage{ObjID: d.U64(), Name: d.Str(), Size: d.I64(), Pages: make(map[int64]*vm.Frame)}
		img.Memory[mi.ObjID] = mi
		nPages := d.U64()
		for j := uint64(0); j < nPages && d.Err() == nil; j++ {
			idx := d.I64()
			var data []byte
			if compact && d.Bool() { // deltaPageRef
				raw := d.View()
				if d.Err() != nil {
					break
				}
				var h objstore.Hash
				if len(raw) != len(h) {
					return fail(fmt.Errorf("core: compact delta: bad hash ref length %d", len(raw)))
				}
				copy(h[:], raw)
				var ok bool
				if resolve != nil {
					data, ok = resolve(h)
				}
				if !ok {
					missing = append(missing, h)
					continue
				}
			} else {
				data = d.View()
			}
			f, err := pm.Alloc()
			if err != nil {
				return fail(err)
			}
			copy(f.Data, data)
			mi.Pages[idx] = f
		}
		nHeat := d.U64()
		if nHeat > 0 {
			mi.Heat = make(map[int64]uint32, nHeat)
		}
		for j := uint64(0); j < nHeat && d.Err() == nil; j++ {
			idx := d.I64()
			mi.Heat[idx] = d.U32()
		}
	}
	img.Roots = d.U64Slice()
	if err := d.Finish(what); err != nil {
		return fail(err)
	}
	return missing, nil
}

// Compact-delta page tags: a page entry in a compact delta carries
// either the literal bytes or just the content hash of bytes the
// receiver is believed to already hold (the dedup idea applied to the
// wire — "send log records instead of disk pages").
const (
	deltaPageLiteral byte = 0 // payload is the page bytes
	deltaPageRef     byte = 1 // payload is the 32-byte content hash
)

// pageHashCount counts PageContentHash calls, so tests can check that
// the replication path hashes each page once.
var pageHashCount atomic.Int64

// PageContentHash is the content hash compact deltas and the dedup
// index key pages by.
func PageContentHash(data []byte) objstore.Hash {
	pageHashCount.Add(1)
	return sha256.Sum256(data)
}

// hashedPage is one captured page with its content hash.
type hashedPage struct {
	idx  int64
	data []byte
	hash objstore.Hash
}

// hashedObject is one VM object's captured pages, hashed.
type hashedObject struct {
	id    uint64
	mi    *MemImage
	pages []hashedPage
}

// pageHashes returns every captured page of the image with its content
// hash, in canonical order: objects by ID, then each object's frames
// and then its swap pages, each by index. The hashes are computed on
// first use and kept, so every replica link flushing the image and a
// receiver indexing it share one pass; an image that never replicates
// never hashes. Captured pages are immutable, so the cache never goes
// stale.
func (img *Image) pageHashes() []hashedObject {
	img.hashOnce.Do(func() {
		ids := make([]uint64, 0, len(img.Memory))
		for id := range img.Memory {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		byIdx := func(a, b hashedPage) int { return cmp.Compare(a.idx, b.idx) }
		objs := make([]hashedObject, len(ids))
		for i, id := range ids {
			mi := img.Memory[id]
			pages := make([]hashedPage, 0, len(mi.Pages)+len(mi.SwapData))
			for idx, f := range mi.Pages {
				pages = append(pages, hashedPage{idx: idx, data: f.Data})
			}
			frames := len(pages)
			for idx, d := range mi.SwapData {
				pages = append(pages, hashedPage{idx: idx, data: d})
			}
			slices.SortFunc(pages[:frames], byIdx)
			slices.SortFunc(pages[frames:], byIdx)
			for j := range pages {
				pages[j].hash = PageContentHash(pages[j].data)
			}
			objs[i] = hashedObject{id: id, mi: mi, pages: pages}
		}
		img.hashed = objs
	})
	return img.hashed
}

// EachPageHash calls fn with the content hash and bytes of every
// captured page, in canonical order. Each page is hashed at most once
// per image, however often this is called. The bytes are the image's
// own: fn must not modify them.
func (img *Image) EachPageHash(fn func(h objstore.Hash, data []byte)) {
	for _, o := range img.pageHashes() {
		for _, p := range o.pages {
			fn(p.hash, p.data)
		}
	}
}

// EncodeDeltaCompact serializes one replication delta like EncodeDelta
// but replaces every page whose content hash `skip` claims the
// receiver holds with a 34-byte hash reference. Pages go out in the
// image's canonical order with the image's cached hashes (see
// pageHashes), so N links encoding one image hash it once. It returns
// the payload, the number of pages encoded and how many of them were
// elided; the sender caches the image's hashes (EachPageHash) as
// receiver-held once the epoch is acked. The claim is an optimization,
// never a correctness input: a receiver missing a referenced block
// answers with a resend request for the full delta.
func (img *Image) EncodeDeltaCompact(skip func(objstore.Hash) bool) (payload []byte, pages, skipped int) {
	objs := img.pageHashes()
	var refs []bool
	pageBytes := 0
	for _, o := range objs {
		for _, p := range o.pages {
			ref := skip != nil && skip(p.hash)
			refs = append(refs, ref)
			if ref {
				pageBytes += len(p.hash)
			} else {
				pageBytes += len(p.data)
			}
		}
	}
	e := codec.NewEncoder()
	e.Grow(img.deltaSizeHint(pageBytes))
	e.U64(img.Group)
	e.U64(img.Epoch)
	e.U64(img.Gen)
	e.Str(img.Name)
	e.Bool(img.Full)
	e.U64(uint64(len(img.Meta)))
	for _, m := range img.Meta {
		e.U64(m.OID)
		e.U64(uint64(m.Kind))
		e.Bytes2(m.Data)
	}
	e.U64(uint64(len(objs)))
	for _, o := range objs {
		e.U64(o.id)
		e.Str(o.mi.Name)
		e.I64(o.mi.Size)
		e.U64(uint64(o.mi.PageCount()))
		for _, p := range o.pages {
			e.I64(p.idx)
			if refs[pages] {
				e.U8(deltaPageRef)
				e.Bytes2(p.hash[:])
				skipped++
			} else {
				e.U8(deltaPageLiteral)
				e.Bytes2(p.data)
			}
			pages++
		}
		encodeHeat(e, o.mi.Heat)
	}
	e.U64Slice(img.Roots)
	return e.Bytes(), pages, skipped
}

// DecodeDeltaCompact parses one compact replication delta, resolving
// hash references through `resolve` (the receiver's block index,
// typically backed by its chains and local object store). resolve may
// return a view of bytes it holds rather than a copy: the decoder only
// copies it into a fresh frame before its next call. Refs that fail to
// resolve are collected in missing; when missing is non-empty the
// image is incomplete — the caller must Release it and request a full
// resend — but Group/Epoch are valid for addressing the request.
func DecodeDeltaCompact(payload []byte, pm *vm.PhysMem, resolve func(objstore.Hash) ([]byte, bool)) (img *Image, missing []objstore.Hash, err error) {
	d := codec.NewDecoder(payload)
	img = newDeltaImage(d)
	if missing, err = decodeBody(d, img, pm, "compact image delta", true, resolve); err != nil {
		return nil, nil, err
	}
	return img, missing, nil
}

// String summarizes the image.
func (img *Image) String() string {
	return fmt.Sprintf("image(group=%d epoch=%d full=%v objs=%d pages=%d)",
		img.Group, img.Epoch, img.Full, len(img.Memory), img.PageCount())
}
