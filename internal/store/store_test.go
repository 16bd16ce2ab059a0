package store

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/extent"
)

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte("hello"), 10, 5)
	buf := make([]byte, 5)
	m.ReadAt(buf, 10)
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	if m.Size() != 15 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestMemStoreHolesReadZero(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte{1, 2}, 0, 2)
	m.WriteAt([]byte{9}, 10, 1)
	buf := make([]byte, 11)
	m.ReadAt(buf, 0)
	want := []byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 9}
	if !bytes.Equal(buf, want) {
		t.Fatalf("read %v, want %v", buf, want)
	}
}

func TestMemStoreOverwrite(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte("aaaaaa"), 0, 6)
	m.WriteAt([]byte("BB"), 2, 2)
	buf := make([]byte, 6)
	m.ReadAt(buf, 0)
	if string(buf) != "aaBBaa" {
		t.Fatalf("read %q", buf)
	}
}

func TestMemStoreNilDataWritesZeros(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte{7, 7, 7}, 0, 3)
	m.WriteAt(nil, 1, 1)
	buf := make([]byte, 3)
	m.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{7, 0, 7}) {
		t.Fatalf("read %v", buf)
	}
}

func TestNullStoreTracksExtentsOnly(t *testing.T) {
	n := NewNull()
	n.WriteAt(nil, 100, 50)
	n.WriteAt(nil, 150, 50)
	if n.Size() != 200 {
		t.Fatalf("size = %d", n.Size())
	}
	w := n.Written()
	if w.Len() != 1 || w.TotalBytes() != 100 {
		t.Fatalf("written = %v", w.Extents())
	}
	buf := []byte{1, 2, 3}
	n.ReadAt(buf, 100)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("null store must read zeros")
	}
}

// Property: MemStore matches a flat []byte reference model under random
// writes, and its Written set matches the bytes ever touched.
func TestMemStoreMatchesFlatModel(t *testing.T) {
	const universe = 512
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMem()
		ref := make([]byte, universe)
		touched := make([]bool, universe)
		for op := 0; op < int(nOps%30)+3; op++ {
			off := r.Int63n(universe - 1)
			length := r.Int63n(universe/8) + 1
			if off+length > universe {
				length = universe - off
			}
			data := make([]byte, length)
			r.Read(data)
			m.WriteAt(data, off, length)
			copy(ref[off:], data)
			for b := off; b < off+length; b++ {
				touched[b] = true
			}
		}
		got := make([]byte, universe)
		m.ReadAt(got, 0)
		for b := 0; b < universe; b++ {
			want := byte(0)
			if touched[b] {
				want = ref[b]
			}
			if got[b] != want {
				t.Logf("byte %d: got %d want %d", b, got[b], want)
				return false
			}
			if touched[b] != m.Written().Covers(extent.Extent{Off: int64(b), Len: 1}) {
				t.Logf("written set wrong at byte %d", b)
				return false
			}
		}
		return m.Written().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMem().WriteAt([]byte{1}, 0, 2)
}
