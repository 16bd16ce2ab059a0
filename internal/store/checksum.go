package store

import (
	"hash/crc32"

	"repro/internal/extent"
)

// ChecksumChunk is the integrity granularity: payload-backed stores keep
// one CRC per aligned 4 KB chunk, and injected corruption is tracked at
// the same grain.
const ChecksumChunk int64 = 4 << 10

// crcTable is CRC-32C (Castagnoli), the checksum NVM-aware storage stacks
// use for at-rest data.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Integrity is the verification surface of a checksummed store: scrub
// paths use VerifyExtent to find corrupt subranges, fault injection uses
// CorruptAt to plant them. Both are pure bookkeeping — neither charges
// simulated device time.
type Integrity interface {
	// VerifyExtent returns the corrupt subranges of e (empty when e is
	// clean). On a payload-backed store the content is re-hashed against
	// the per-chunk CRCs; on a payload-free store the corruption ledger
	// answers, so 32 GB runs verify without holding bytes.
	VerifyExtent(e extent.Extent) []extent.Extent
	// CorruptAt flips n bytes at off (payload-backed: the stored bytes
	// really change, bypassing the checksum update; payload-free: the
	// range is marked in the ledger). A later WriteAt over the range
	// heals it.
	CorruptAt(off, n int64)
}

// ChecksumStore wraps a Store with per-chunk CRCs (payload-backed inner)
// or an extent-granularity corruption ledger (payload-free inner). All
// Store methods delegate; the wrapper adds zero simulated time.
type ChecksumStore struct {
	inner   Store
	payload bool
	sums    map[int64]uint32 // chunk index -> CRC-32C of the aligned chunk
	bad     extent.Set       // injected-corruption ledger
}

// memChecksumStore preserves the PayloadBacked marker of a wrapped
// MemStore so consumers that branch on payload presence keep working.
type memChecksumStore struct{ *ChecksumStore }

func (m *memChecksumStore) payloadBacked() {}

// NewMemChecksummed is a Factory for a checksummed MemStore.
func NewMemChecksummed() Store { return Checksummed(NewMem()) }

// NewNullChecksummed is a Factory for a checksummed NullStore.
func NewNullChecksummed() Store { return Checksummed(NewNull()) }

// Checksummed wraps inner with integrity tracking. A payload-backed inner
// keeps its PayloadBacked marker.
func Checksummed(inner Store) Store {
	cs := &ChecksumStore{inner: inner, sums: map[int64]uint32{}}
	if _, ok := inner.(PayloadBacked); ok {
		cs.payload = true
		return &memChecksumStore{cs}
	}
	return cs
}

// WriteAt implements Store; a write over a corrupt range heals it.
func (cs *ChecksumStore) WriteAt(data []byte, off, size int64) {
	cs.inner.WriteAt(data, off, size)
	if size <= 0 {
		return
	}
	if cs.bad.Len() > 0 {
		cs.bad.Remove(extent.Extent{Off: off, Len: size})
	}
	if cs.payload {
		cs.rehash(off, off+size)
	}
}

// rehash recomputes the CRCs of every chunk touching [lo, hi).
func (cs *ChecksumStore) rehash(lo, hi int64) {
	buf := make([]byte, ChecksumChunk)
	for ci := lo / ChecksumChunk; ci <= (hi-1)/ChecksumChunk; ci++ {
		cs.inner.ReadAt(buf, ci*ChecksumChunk)
		cs.sums[ci] = crc32.Checksum(buf, crcTable)
	}
}

// ReadAt implements Store.
func (cs *ChecksumStore) ReadAt(buf []byte, off int64) { cs.inner.ReadAt(buf, off) }

// Written implements Store.
func (cs *ChecksumStore) Written() *extent.Set { return cs.inner.Written() }

// Size implements Store.
func (cs *ChecksumStore) Size() int64 { return cs.inner.Size() }

// CorruptAt implements Integrity.
func (cs *ChecksumStore) CorruptAt(off, n int64) {
	if n <= 0 {
		return
	}
	cs.bad.Add(extent.Extent{Off: off, Len: n})
	if !cs.payload {
		return
	}
	// Really flip the stored bytes, bypassing the checksum update, so a
	// re-hash sees a genuine mismatch.
	buf := make([]byte, n)
	cs.inner.ReadAt(buf, off)
	for i := range buf {
		buf[i] ^= 0xFF
	}
	cs.inner.WriteAt(buf, off, n)
}

// VerifyExtent implements Integrity.
func (cs *ChecksumStore) VerifyExtent(e extent.Extent) []extent.Extent {
	if e.Empty() {
		return nil
	}
	var out extent.Set
	for _, b := range cs.bad.Extents() {
		if ov := b.Intersect(e); !ov.Empty() {
			out.Add(ov)
		}
	}
	if cs.payload {
		buf := make([]byte, ChecksumChunk)
		for ci := e.Off / ChecksumChunk; ci <= (e.End()-1)/ChecksumChunk; ci++ {
			want, ok := cs.sums[ci]
			if !ok {
				continue // never written through the wrapper
			}
			cs.inner.ReadAt(buf, ci*ChecksumChunk)
			if crc32.Checksum(buf, crcTable) == want {
				continue
			}
			if ov := (extent.Extent{Off: ci * ChecksumChunk, Len: ChecksumChunk}).Intersect(e); !ov.Empty() {
				out.Add(ov)
			}
		}
	}
	return out.Extents()
}
