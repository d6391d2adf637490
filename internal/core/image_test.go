package core

import (
	"bytes"
	"testing"

	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// codecImage builds an image with two objects, frames and swap pages,
// whose page i of object o holds a byte pattern unique to (o, i).
func codecImage(t *testing.T, pm *vm.PhysMem) *Image {
	t.Helper()
	img := &Image{Group: 3, Epoch: 9, Gen: 2, Name: "codec", Memory: make(map[uint64]*MemImage),
		Meta: []MetaRec{{OID: 1, Data: []byte("meta")}}, Roots: []uint64{1}}
	for _, id := range []uint64{vmBit | 5, vmBit | 2} {
		mi := &MemImage{ObjID: id, Name: "obj", Size: 16 * vm.PageSize,
			Pages: make(map[int64]*vm.Frame), SwapData: make(map[int64][]byte), Heat: map[int64]uint32{0: 4}}
		for i := int64(0); i < 6; i++ {
			f, err := pm.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			for j := range f.Data {
				f.Data[j] = byte(int64(id) + i*17 + int64(j))
			}
			mi.Pages[i] = f
		}
		mi.SwapData[10] = bytes.Repeat([]byte{byte(id)}, vm.PageSize)
		img.Memory[id] = mi
	}
	return img
}

// samePages requires got to hold exactly want's pages, byte for byte.
func samePages(t *testing.T, what string, want, got *Image) {
	t.Helper()
	for id, mi := range want.Memory {
		gi := got.Memory[id]
		if gi == nil || len(gi.Pages) != mi.PageCount() {
			t.Fatalf("%s: object %x decoded with %v pages, want %d", what, id, gi, mi.PageCount())
		}
		for idx := range gi.Pages {
			if !bytes.Equal(gi.PageData(idx), mi.PageData(idx)) {
				t.Fatalf("%s: object %x page %d differs", what, id, idx)
			}
		}
	}
}

// TestCompactDeltaEncodeAndDecode pins the replication codec: compact
// encoding is canonical (byte-identical across calls) and hashes each
// page once per image however many times it is encoded; all three
// decoders rebuild the pages exactly, into frames that own their bytes
// rather than aliasing the payload they were decoded from.
func TestCompactDeltaEncodeAndDecode(t *testing.T) {
	pm := vm.NewPhysMem(0)
	img := codecImage(t, pm)
	held := map[objstore.Hash][]byte{}
	for _, mi := range img.Memory {
		d := mi.PageData(3)
		held[PageContentHash(d)] = d
	}
	skip := func(h objstore.Hash) bool { return held[h] != nil }

	c0 := pageHashCount.Load()
	a, pages, skipped := img.EncodeDeltaCompact(skip)
	b, _, _ := img.EncodeDeltaCompact(skip)
	if !bytes.Equal(a, b) {
		t.Fatal("two compact encodings of one image differ")
	}
	if pages != img.PageCount() || skipped != len(held) {
		t.Fatalf("encoded %d pages with %d refs, want %d and %d", pages, skipped, img.PageCount(), len(held))
	}
	if n := pageHashCount.Load() - c0; n != int64(pages) {
		t.Fatalf("two encodings hashed %d pages, want %d (once each)", n, pages)
	}

	decoders := []struct {
		name    string
		payload []byte
		decode  func([]byte) (*Image, error)
	}{
		{"compact delta", a, func(p []byte) (*Image, error) {
			got, missing, err := DecodeDeltaCompact(p, pm, func(h objstore.Hash) ([]byte, bool) {
				d, ok := held[h]
				return d, ok
			})
			if len(missing) > 0 {
				t.Fatalf("compact delta: %d refs unresolved", len(missing))
			}
			return got, err
		}},
		{"delta", img.EncodeDelta(), func(p []byte) (*Image, error) { return DecodeDelta(p, pm) }},
		{"image", img.Encode(), func(p []byte) (*Image, error) { return DecodeImage(p, pm) }},
	}
	for _, dc := range decoders {
		payload := append([]byte(nil), dc.payload...)
		got, err := dc.decode(payload)
		if err != nil {
			t.Fatalf("%s: %v", dc.name, err)
		}
		samePages(t, dc.name, img, got)
		for i := range payload {
			payload[i] = 0xa5
		}
		samePages(t, dc.name+" after the payload was overwritten", img, got)
		if string(got.Meta[0].Data) != "meta" {
			t.Fatalf("%s: metadata aliases the payload", dc.name)
		}
	}
}
