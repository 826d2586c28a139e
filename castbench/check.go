package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"morpheus"
)

// Every cast payload starts with a 16-byte tag — magic, origin member
// index, sequence number — followed by a body whose bytes are a pure
// function of the sequence number, so a receiver can check the bytes
// without any shared state and the trace wrappers can find the cast inside
// a transport frame or a udpnet container.
const (
	tagLen = 16
	// tagMagic cannot occur in a body: body bytes ascend by one.
	tagMagic = "\xC7CST"
	// patternLen is the period of the body pattern.
	patternLen = 251
	// maxMembers bounds the deployments the benchmark builds.
	maxMembers = 4
)

// putTag writes the tag for (origin, seq) into b[:tagLen].
func putTag(b []byte, origin int, seq uint64) {
	copy(b, tagMagic)
	binary.BigEndian.PutUint32(b[4:8], uint32(origin))
	binary.BigEndian.PutUint64(b[8:16], seq)
}

// parseTag reads the tag at the front of a cast payload.
func parseTag(p []byte) (origin int, seq uint64, ok bool) {
	if len(p) < tagLen || string(p[:4]) != tagMagic {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(p[4:8])), binary.BigEndian.Uint64(p[8:16]), true
}

// nextTag finds the first tag at or after b[off:]. It returns the tag's
// origin and sequence number and the offset to continue scanning from.
func nextTag(b []byte, off int) (origin int, seq uint64, next int, ok bool) {
	for off+tagLen <= len(b) {
		i := bytes.Index(b[off:], []byte(tagMagic))
		if i < 0 || off+i+tagLen > len(b) {
			return 0, 0, len(b), false
		}
		at := off + i
		origin = int(binary.BigEndian.Uint32(b[at+4 : at+8]))
		seq = binary.BigEndian.Uint64(b[at+8 : at+16])
		if origin < maxMembers {
			return origin, seq, at + tagLen, true
		}
		off = at + 1
	}
	return 0, 0, len(b), false
}

// castSpec is the seeded input: which member sends each cast of the shared
// sequence range, and how large each cast is.
type castSpec struct {
	n       int    // members
	start   int    // member index that sends sequence number 0
	sizes   []int  // payload size of cast seq is sizes[seq%len(sizes)]
	pattern []byte // body bytes, patternLen + the largest body
}

func newCastSpec(n int, sizes []int, rng *rand.Rand) *castSpec {
	s := &castSpec{n: n, start: rng.IntN(n), sizes: make([]int, 4096)}
	largest := 0
	for i := range s.sizes {
		s.sizes[i] = sizes[rng.IntN(len(sizes))]
		largest = max(largest, s.sizes[i])
	}
	s.pattern = make([]byte, patternLen+largest)
	for i := range s.pattern {
		s.pattern[i] = byte(i % patternLen)
	}
	return s
}

// origin is the member index that sends cast seq.
func (s *castSpec) origin(seq uint64) int { return int((uint64(s.start) + seq) % uint64(s.n)) }

// size is cast seq's payload length.
func (s *castSpec) size(seq uint64) int { return s.sizes[seq%uint64(len(s.sizes))] }

// body is cast seq's payload after the tag.
func (s *castSpec) body(seq uint64) []byte {
	off := int(seq % patternLen)
	return s.pattern[off : off+s.size(seq)-tagLen]
}

// fill writes cast seq's payload into buf and returns it.
func (s *castSpec) fill(buf []byte, seq uint64) []byte {
	p := buf[:s.size(seq)]
	putTag(p, s.origin(seq), seq)
	copy(p[tagLen:], s.body(seq))
	return p
}

// firstSeq is the first sequence number member o sends.
func (s *castSpec) firstSeq(o int) uint64 { return uint64((o - s.start + s.n) % s.n) }

// castCore is the per-cast delivery record, indexed by sequence number.
type castCore struct {
	sendAt    int64        // mono() just before Group.Send
	doneAt    atomic.Int64 // mono() when the last member delivered
	remaining atomic.Int32 // members yet to deliver
}

// memberState is one member's view of the delivery check: per origin, the
// sequence number it must deliver next (exactly once, FIFO, gap-free).
type memberState struct {
	mu     sync.Mutex
	next   [maxMembers]uint64
	seen   []uint32 // bitmap over sequence numbers: delivered here
	lastAt int64
	gaps   []gap // delivery gaps of at least gapFloor, when recorded
	_      [64]byte
}

// checker verifies every delivery and times every cast.
type checker struct {
	spec  *castSpec
	ids   []morpheus.NodeID
	casts []castCore
	fail  []atomic.Uint32 // bitmap over sequence numbers: the cast failed

	members   []memberState
	completed atomic.Uint64 // casts delivered at every member
	// done, when non-nil, is signalled at each completion (the closed
	// loop with one outstanding cast waits on it).
	done chan struct{}
	tr   *tracer // nil on untraced runs

	// gapFloor > 0 records every per-member delivery gap of at least
	// that many nanoseconds.
	gapFloor int64

	violations atomic.Uint64
	stray      atomic.Uint64 // deliveries that carry no valid tag
	mu         sync.Mutex
	examples   []string
}

func newChecker(spec *castSpec, ids []morpheus.NodeID, capacity int, gapFloor int64, gapCap int) (*checker, func(), error) {
	casts, freeCasts, err := offHeap[castCore](capacity)
	if err != nil {
		return nil, nil, fmt.Errorf("castbench: reserve cast records: %w", err)
	}
	words := (capacity + 31) / 32
	fail, freeFail, err := offHeap[atomic.Uint32](words)
	if err != nil {
		freeCasts()
		return nil, nil, fmt.Errorf("castbench: reserve failure bitmap: %w", err)
	}
	seen, freeSeen, err := offHeap[uint32](words * len(ids))
	if err != nil {
		freeCasts()
		freeFail()
		return nil, nil, fmt.Errorf("castbench: reserve delivery bitmaps: %w", err)
	}
	c := &checker{
		spec:     spec,
		ids:      ids,
		casts:    casts,
		fail:     fail,
		members:  make([]memberState, len(ids)),
		gapFloor: gapFloor,
	}
	for m := range c.members {
		c.members[m].seen = seen[m*words : (m+1)*words]
		for o := range ids {
			c.members[m].next[o] = spec.firstSeq(o)
		}
		if gapFloor > 0 {
			c.members[m].gaps = make([]gap, 0, gapCap)
		}
	}
	return c, func() { freeCasts(); freeFail(); freeSeen() }, nil
}

// arm prepares cast seq's record; it must precede the Send.
func (c *checker) arm(seq uint64, now int64) {
	cc := &c.casts[seq]
	cc.sendAt = now
	cc.remaining.Store(int32(len(c.ids)))
}

// markFailed flags cast seq as failed (idempotent).
func (c *checker) markFailed(seq uint64) {
	if seq < uint64(len(c.casts)) {
		c.fail[seq/32].Or(1 << (seq % 32))
	}
}

// violation records a broken delivery guarantee.
func (c *checker) violation(format string, args ...any) {
	c.violations.Add(1)
	c.mu.Lock()
	if len(c.examples) < 8 {
		c.examples = append(c.examples, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// deliver checks one delivery at member m (the group's OnMessage).
func (c *checker) deliver(m int, from morpheus.NodeID, payload []byte) {
	now := mono()
	o, seq, ok := parseTag(payload)
	if !ok || o >= len(c.ids) || seq >= uint64(len(c.casts)) || c.spec.origin(seq) != o {
		c.stray.Add(1)
		c.violation("member %d: delivery of %d bytes from %d without a valid tag", m+1, len(payload), from)
		return
	}
	ms := &c.members[m]
	ms.mu.Lock()
	if c.gapFloor > 0 {
		if ms.lastAt > 0 && now-ms.lastAt >= c.gapFloor && len(ms.gaps) < cap(ms.gaps) {
			ms.gaps = append(ms.gaps, gap{ms.lastAt, now})
		}
		ms.lastAt = now
	}
	word, bit := &ms.seen[seq/32], uint32(1)<<(seq%32)
	again := *word&bit != 0
	*word |= bit
	exp := ms.next[o]
	n := uint64(len(c.ids))
	if seq >= exp {
		ms.next[o] = seq + n
	}
	ms.mu.Unlock()
	switch {
	case again:
		c.markFailed(seq)
		c.violation("member %d: cast %d from member %d delivered twice", m+1, seq, o+1)
		return
	case seq < exp:
		c.markFailed(seq)
		c.violation("member %d: cast %d from member %d delivered late, after %d", m+1, seq, o+1, exp-n)
	case seq > exp:
		// Everything skipped is out of FIFO order at best.
		for s := exp; s < seq; s += n {
			c.markFailed(s)
		}
		c.violation("member %d: cast %d from member %d delivered before %d", m+1, seq, o+1, exp)
	}
	if from != c.ids[o] {
		c.markFailed(seq)
		c.violation("member %d: cast %d reported from %d, sent by %d", m+1, seq, from, c.ids[o])
	}
	if len(payload) != c.spec.size(seq) || !bytes.Equal(payload[tagLen:], c.spec.body(seq)) {
		c.markFailed(seq)
		c.violation("member %d: cast %d corrupted (%d bytes, want %d)", m+1, seq, len(payload), c.spec.size(seq))
	}
	cc := &c.casts[seq]
	if cc.remaining.Add(-1) != 0 {
		return
	}
	cc.doneAt.Store(now)
	if c.tr != nil {
		c.tr.casts[seq].last.Store(int32(m))
	}
	c.completed.Add(1)
	if c.done != nil {
		select {
		case c.done <- struct{}{}:
		default:
		}
	}
}

// finish marks every cast below sent that some member never delivered,
// and returns the number of failed casts. Call it once deliveries stop.
func (c *checker) finish(sent uint64) uint64 {
	for m := range c.members {
		ms := &c.members[m]
		ms.mu.Lock()
		missing, first := 0, uint64(0)
		for s := uint64(0); s < sent; s++ {
			if ms.seen[s/32]&(1<<(s%32)) == 0 {
				if missing == 0 {
					first = s
				}
				missing++
				c.markFailed(s)
			}
		}
		ms.mu.Unlock()
		if missing > 0 {
			c.violation("member %d: %d casts never delivered (first %d)", m+1, missing, first)
		}
	}
	var failed uint64
	for i := uint64(0); i < (sent+31)/32; i++ {
		w := c.fail[i].Load()
		if rest := sent - i*32; rest < 32 {
			w &= 1<<rest - 1
		}
		failed += uint64(bits.OnesCount32(w))
	}
	return failed
}

// gaps returns each member's recorded delivery gaps.
func (c *checker) gaps() [][]gap {
	out := make([][]gap, len(c.members))
	for m := range c.members {
		ms := &c.members[m]
		ms.mu.Lock()
		out[m] = ms.gaps
		ms.mu.Unlock()
	}
	return out
}

// examplesSnapshot returns the recorded violation examples.
func (c *checker) examplesSnapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.examples...)
}
