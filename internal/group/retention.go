package group

// seqRing is a seq-ordered retention set: entries are appended in strictly
// increasing sequence order and retired from the low end, so pruning below
// a stability watermark costs only the entries it retires, and evicting the
// oldest entry costs O(1). Storage is a power-of-two circular buffer that
// grows by doubling and is reused as entries retire.
type seqRing[T any] struct {
	buf  []seqEntry[T]
	head int // index of the lowest-seq entry in buf
	n    int // live entries
}

// seqEntry is one retained value under its sequence number.
type seqEntry[T any] struct {
	seq uint64
	v   T
}

// size returns the number of retained entries.
func (r *seqRing[T]) size() int { return r.n }

// at returns the i-th lowest entry (0 <= i < n).
func (r *seqRing[T]) at(i int) *seqEntry[T] {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// push appends an entry. seq must exceed every retained seq.
func (r *seqRing[T]) push(seq uint64, v T) {
	if r.n == len(r.buf) {
		nb := make([]seqEntry[T], max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = *r.at(i)
		}
		r.buf, r.head = nb, 0
	}
	*r.at(r.n) = seqEntry[T]{seq: seq, v: v}
	r.n++
}

// low returns the lowest retained seq; the ring must not be empty.
func (r *seqRing[T]) low() uint64 { return r.buf[r.head].seq }

// popLow removes and returns the lowest entry; the ring must not be empty.
func (r *seqRing[T]) popLow() seqEntry[T] {
	e := r.buf[r.head]
	r.buf[r.head] = seqEntry[T]{} // drop the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// get returns the value retained under seq.
func (r *seqRing[T]) get(seq uint64) (T, bool) {
	lo, hi := 0, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid).seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < r.n && r.at(lo).seq == seq {
		return r.at(lo).v, true
	}
	var zero T
	return zero, false
}
