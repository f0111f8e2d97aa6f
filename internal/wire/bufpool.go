package wire

import "math/bits"

// BufPool is a size-classed free list of message buffers: the bytes a
// transport holds between the application's send and the peer's
// acknowledgment, and between reassembly and delivery. It complements
// PacketPool, which recycles the per-packet storage: together they keep
// the steady-state data path free of per-message heap allocation.
//
// Ownership is explicit. Get hands the caller a buffer it owns; the
// owner (or whoever it passes the buffer to) returns it with Put exactly
// once, after which no slice of it may be read or written. Like
// PacketPool it is single-goroutine: one pool belongs to one simulated
// world. The zero value is ready to use.
//
// Size classes step four times per octave (64, 80, 96, 112, 128, 160,
// ...), so a buffer wastes at most a quarter of its capacity: a 64 KiB
// message plus its 4-byte frame prefix takes an 80 KiB buffer, not a
// 128 KiB one.
type BufPool struct {
	free        [][][]byte // per size class
	outstanding int
}

// minBufShift is log2 of the smallest size class.
const minBufShift = 6

// bufClass returns the smallest size class holding n bytes.
func bufClass(n int) int {
	if n <= 1<<minBufShift {
		return 0
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	q := 1 << (e - 2)            // quarter-octave step
	steps := (n - 1<<e + q - 1) / q
	return (e-minBufShift)*4 + steps
}

// bufClassSize returns the capacity of size class c.
func bufClassSize(c int) int {
	if c == 0 {
		return 1 << minBufShift
	}
	e := (c-1)/4 + minBufShift
	return 1<<e + ((c-1)%4+1)<<(e-2)
}

// Get returns a buffer of length n owned by the caller. Its contents are
// unspecified: callers overwrite every byte they read back.
func (bp *BufPool) Get(n int) []byte {
	bp.outstanding++
	c := bufClass(n)
	if c < len(bp.free) {
		if l := len(bp.free[c]); l > 0 {
			b := bp.free[c][l-1]
			bp.free[c][l-1] = nil
			bp.free[c] = bp.free[c][:l-1]
			return b[:n]
		}
	}
	//smt:coldpath -- buffer-pool refill; steady state reuses released buffers
	return make([]byte, n, bufClassSize(c))
}

// Put returns a buffer taken by Get. The buffer is filed by its
// capacity, so any slice that starts at the buffer's first byte returns
// it whole.
func (bp *BufPool) Put(b []byte) {
	bp.outstanding--
	c := bufClass(cap(b))
	if bufClassSize(c) > cap(b) {
		c-- // not a class size: file it where it still satisfies Get
	}
	if c < 0 {
		return
	}
	for len(bp.free) <= c {
		bp.free = append(bp.free, nil)
	}
	bp.free[c] = append(bp.free[c], b[:0])
}

// Outstanding reports how many buffers are held (taken by Get, not yet
// Put). A quiesced world must report zero: a positive count means some
// path dropped a message buffer without returning it.
func (bp *BufPool) Outstanding() int { return bp.outstanding }
