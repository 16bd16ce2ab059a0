// Package store provides the byte-payload backends used by the simulated
// file systems. MemStore keeps real data so integration tests can assert
// byte-exact end-to-end correctness of the collective write and cache flush
// paths; NullStore tracks only written extents so the 32 GB evaluation runs
// execute the identical control flow without allocating payload memory.
package store

import (
	"fmt"

	"repro/internal/extent"
)

// Store records the logical content of one file.
type Store interface {
	// WriteAt records a write of length len(data) bytes, or of size bytes
	// when data is nil (metadata-only write).
	WriteAt(data []byte, off, size int64)
	// ReadAt fills buf from the store. Bytes never written read as zero.
	// Metadata-only stores return zeros for all content.
	ReadAt(buf []byte, off int64)
	// Written returns the set of extents ever written.
	Written() *extent.Set
	// Size returns the file size: the highest written offset.
	Size() int64
}

// Factory creates a Store for a newly created file.
type Factory func() Store

// PayloadBacked marks stores that hold real bytes (MemStore); consumers use
// it to decide whether reading back content is meaningful.
type PayloadBacked interface{ payloadBacked() }

func (m *MemStore) payloadBacked() {}

// NewMem is a Factory for MemStore.
func NewMem() Store { return &MemStore{} }

// NewNull is a Factory for NullStore.
func NewNull() Store { return &NullStore{} }

// MemStore holds real file bytes in coalesced chunks.
type MemStore struct {
	chunks  []memChunk // sorted by off, non-overlapping
	written extent.Set
	size    int64
}

type memChunk struct {
	off  int64
	data []byte
}

// WriteAt implements Store.
func (m *MemStore) WriteAt(data []byte, off, size int64) {
	if data == nil {
		data = make([]byte, size)
	}
	if int64(len(data)) != size {
		panic(fmt.Sprintf("store: data length %d != size %d", len(data), size))
	}
	if size == 0 {
		return
	}
	m.written.Add(extent.Extent{Off: off, Len: size})
	if off+size > m.size {
		m.size = off + size
	}
	// Simple approach: collect overlapping chunks, merge into one buffer.
	e := extent.Extent{Off: off, Len: size}
	var keep []memChunk
	lo, hi := off, off+size
	var overlapping []memChunk
	for _, c := range m.chunks {
		ce := extent.Extent{Off: c.off, Len: int64(len(c.data))}
		if ce.Overlaps(e) || ce.End() == e.Off || e.End() == ce.Off {
			overlapping = append(overlapping, c)
			if c.off < lo {
				lo = c.off
			}
			if ce.End() > hi {
				hi = ce.End()
			}
		} else {
			keep = append(keep, c)
		}
	}
	buf := make([]byte, hi-lo)
	for _, c := range overlapping {
		copy(buf[c.off-lo:], c.data)
	}
	copy(buf[off-lo:], data)
	keep = append(keep, memChunk{off: lo, data: buf})
	// Restore sort order.
	for i := len(keep) - 1; i > 0 && keep[i].off < keep[i-1].off; i-- {
		keep[i], keep[i-1] = keep[i-1], keep[i]
	}
	m.chunks = keep
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(buf []byte, off int64) {
	for i := range buf {
		buf[i] = 0
	}
	e := extent.Extent{Off: off, Len: int64(len(buf))}
	for _, c := range m.chunks {
		ce := extent.Extent{Off: c.off, Len: int64(len(c.data))}
		ov := ce.Intersect(e)
		if ov.Empty() {
			continue
		}
		copy(buf[ov.Off-off:ov.Off-off+ov.Len], c.data[ov.Off-c.off:])
	}
}

// Written implements Store.
func (m *MemStore) Written() *extent.Set { return &m.written }

// Size implements Store.
func (m *MemStore) Size() int64 { return m.size }

// NullStore tracks only extents and size; content reads as zero.
type NullStore struct {
	written extent.Set
	size    int64
}

// WriteAt implements Store.
func (n *NullStore) WriteAt(data []byte, off, size int64) {
	if data != nil && int64(len(data)) != size {
		panic(fmt.Sprintf("store: data length %d != size %d", len(data), size))
	}
	if size == 0 {
		return
	}
	n.written.Add(extent.Extent{Off: off, Len: size})
	if off+size > n.size {
		n.size = off + size
	}
}

// ReadAt implements Store.
func (n *NullStore) ReadAt(buf []byte, off int64) {
	for i := range buf {
		buf[i] = 0
	}
}

// Written implements Store.
func (n *NullStore) Written() *extent.Set { return &n.written }

// Size implements Store.
func (n *NullStore) Size() int64 { return n.size }
