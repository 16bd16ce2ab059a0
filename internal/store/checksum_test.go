package store

import (
	"testing"

	"repro/internal/extent"
)

func TestChecksummedPreservesPayloadMarker(t *testing.T) {
	if _, ok := NewMemChecksummed().(PayloadBacked); !ok {
		t.Fatal("checksummed MemStore must keep the PayloadBacked marker")
	}
	if _, ok := NewNullChecksummed().(PayloadBacked); ok {
		t.Fatal("checksummed NullStore must not claim payload backing")
	}
}

// A single flipped byte in a payload-backed store must be detected by
// VerifyExtent — the acceptance bar for the whole corruption layer.
func TestChecksumDetectsSingleFlippedByte(t *testing.T) {
	s := NewMemChecksummed()
	integ := s.(Integrity)
	data := make([]byte, 3*ChecksumChunk)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.WriteAt(data, 0, int64(len(data)))
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: int64(len(data))}); len(bad) != 0 {
		t.Fatalf("clean store verified corrupt: %v", bad)
	}

	integ.CorruptAt(ChecksumChunk+5, 1)
	bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: int64(len(data))})
	if len(bad) == 0 {
		t.Fatal("flipped byte not detected")
	}
	for _, b := range bad {
		if !b.Contains(ChecksumChunk + 5) {
			t.Fatalf("corrupt range %v misses the flipped byte", b)
		}
	}
	// The flip really changed the stored content.
	buf := make([]byte, 1)
	s.ReadAt(buf, ChecksumChunk+5)
	if buf[0] == data[ChecksumChunk+5] {
		t.Fatal("CorruptAt did not change the stored byte")
	}
	// Untouched chunks stay clean.
	if got := integ.VerifyExtent(extent.Extent{Off: 0, Len: ChecksumChunk}); len(got) != 0 {
		t.Fatalf("untouched chunk flagged corrupt: %v", got)
	}
}

func TestChecksumRewriteHeals(t *testing.T) {
	s := NewMemChecksummed()
	integ := s.(Integrity)
	data := make([]byte, 2*ChecksumChunk)
	for i := range data {
		data[i] = byte(i)
	}
	s.WriteAt(data, 0, int64(len(data)))
	integ.CorruptAt(10, 4)
	if len(integ.VerifyExtent(extent.Extent{Off: 0, Len: ChecksumChunk})) == 0 {
		t.Fatal("corruption not detected before the heal")
	}
	s.WriteAt(data[:ChecksumChunk], 0, ChecksumChunk)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 2 * ChecksumChunk}); len(bad) != 0 {
		t.Fatalf("rewrite did not heal: %v", bad)
	}
	buf := make([]byte, 4)
	s.ReadAt(buf, 10)
	for i, b := range buf {
		if b != data[10+i] {
			t.Fatalf("healed byte %d = %#x, want %#x", 10+i, b, data[10+i])
		}
	}
}

// The payload-free wrapper answers from its ledger so huge runs never
// hold bytes: corruption is tracked per extent and healed by rewrites.
func TestChecksumNullLedger(t *testing.T) {
	s := NewNullChecksummed()
	integ := s.(Integrity)
	s.WriteAt(nil, 0, 1<<20)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 1 << 20}); len(bad) != 0 {
		t.Fatalf("clean ledger reports %v", bad)
	}
	integ.CorruptAt(4096, 100)
	bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 1 << 20})
	if len(bad) != 1 || bad[0].Off != 4096 || bad[0].Len != 100 {
		t.Fatalf("ledger = %v, want [{4096 100}]", bad)
	}
	// Verification windows clip to the queried extent.
	bad = integ.VerifyExtent(extent.Extent{Off: 4140, Len: 1 << 10})
	if len(bad) != 1 || bad[0].Off != 4140 || bad[0].Len != 56 {
		t.Fatalf("clipped ledger = %v, want [{4140 56}]", bad)
	}
	s.WriteAt(nil, 4096, 4096)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 1 << 20}); len(bad) != 0 {
		t.Fatalf("rewrite did not heal the ledger: %v", bad)
	}
	if s.Size() != 1<<20 || s.Written().TotalBytes() != 1<<20 {
		t.Fatalf("delegation broken: size=%d written=%d", s.Size(), s.Written().TotalBytes())
	}
}
