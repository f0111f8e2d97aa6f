package wire

import "testing"

func TestBufClassesQuarterOctave(t *testing.T) {
	for n := 1; n <= 1<<20; n++ {
		c := bufClass(n)
		size := bufClassSize(c)
		if size < n {
			t.Fatalf("class %d of %d B holds only %d B", c, n, size)
		}
		if c > 0 && bufClassSize(c-1) >= n {
			t.Fatalf("%d B maps to class %d (%d B) but class %d (%d B) fits", n, c, size, c-1, bufClassSize(c-1))
		}
		if n > 64 && 4*size > 5*n+4*64 {
			t.Fatalf("%d B wastes too much in a %d B buffer", n, size)
		}
	}
	// A 64 KiB message behind its 4-byte frame prefix takes 80 KiB.
	if got := bufClassSize(bufClass(64<<10 + 4)); got != 80<<10 {
		t.Fatalf("64 KiB + 4 B takes a %d B buffer, want %d", got, 80<<10)
	}
}

func TestBufPoolReuseAndOutstanding(t *testing.T) {
	var bp BufPool
	a := bp.Get(1000)
	if len(a) != 1000 || cap(a) != bufClassSize(bufClass(1000)) {
		t.Fatalf("Get(1000): len %d cap %d", len(a), cap(a))
	}
	b := bp.Get(65540)
	if bp.Outstanding() != 2 {
		t.Fatalf("outstanding %d, want 2", bp.Outstanding())
	}
	a[0] = 0x5a
	bp.Put(a)
	bp.Put(b)
	if bp.Outstanding() != 0 {
		t.Fatalf("outstanding %d after Put, want 0", bp.Outstanding())
	}
	// Same class: the released buffer comes back.
	c := bp.Get(900)
	if &c[:1][0] != &a[:1][0] {
		t.Fatal("Get did not reuse the released buffer of its class")
	}
	// A slice starting at the buffer's first byte returns it whole.
	bp.Put(c[:10])
	if d := bp.Get(1000); &d[0] != &a[:1][0] || len(d) != 1000 {
		t.Fatal("a shortened buffer did not return whole")
	}
}

func TestBufPoolForeignBuffers(t *testing.T) {
	var bp BufPool
	bp.Get(1)
	bp.Put(make([]byte, 100)) // not a class size: filed under 96 B
	if got := bp.Get(96); cap(got) != 100 {
		t.Fatalf("foreign 100 B buffer not reused for a 96 B request (cap %d)", cap(got))
	}
	bp.Get(1)
	bp.Put(make([]byte, 10)) // below the smallest class: dropped
	if bp.Outstanding() != 1 {
		t.Fatalf("outstanding %d, want 1", bp.Outstanding())
	}
}

func BenchmarkBufPoolGetPut(b *testing.B) {
	var bp BufPool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bp.Put(bp.Get(64<<10 + 4))
	}
}
