package main

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/group"
	"morpheus/internal/stack"
	"morpheus/internal/transport"
)

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64
		idx   int
		q     float64
		label string
	}{
		{1000, 0.99, 989, 0.99, "p99 supported: exactly 10 samples beyond"},
		{2000, 0.99, 1979, 0.99, "p99 supported with room to spare"},
		{500, 0.99, 489, 0.98, "p99 unsupported: highest with 10 beyond is p98"},
		{11, 0.99, 0, 1.0 / 11, "one sample below ten beyond"},
		{10, 0.99, 4, 0.5, "no quantile leaves 10 beyond: median"},
		{1, 0.99, 0, 0.5, "single sample"},
	} {
		idx, q := tailRank(tc.n, tc.want)
		if idx != tc.idx || q != tc.q {
			t.Errorf("%s: tailRank(%d, %v) = %d, %v; want %d, %v", tc.label, tc.n, tc.want, idx, q, tc.idx, tc.q)
		}
		if tc.n > minBeyond && tc.q != 0.5 && tc.n-1-idx < minBeyond {
			t.Errorf("%s: only %d samples beyond index %d", tc.label, tc.n-1-idx, idx)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3}, 0.99)
	if s.p50 != 3 || s.tail != 3 || s.n != 5 {
		t.Errorf("summarize = %+v; want median 3 and the median as tail", s)
	}
}

// container packs transport frames into a udpnet v2 container datagram:
// magic 'M' | version 2 | src | count | count x {uvarint body len |
// uvarint len + port | uvarint len + class | payload}.
func container(src int32, port, class string, frames ...[]byte) []byte {
	b := []byte{'M', 2}
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	b = binary.BigEndian.AppendUint16(b, uint16(len(frames)))
	for _, f := range frames {
		var body []byte
		body = binary.AppendUvarint(body, uint64(len(port)))
		body = append(body, port...)
		body = binary.AppendUvarint(body, uint64(len(class)))
		body = append(body, class...)
		body = append(body, f...)
		b = binary.AppendUvarint(b, uint64(len(body)))
		b = append(b, body...)
	}
	return b
}

func TestTagScanInUDPContainer(t *testing.T) {
	stack.RegisterAllWireEvents(nil)
	spec := newCastSpec(3, []int{32, 64, 256, 1024}, rand.New(rand.NewPCG(7, 7)))
	buf := make([]byte, len(spec.pattern)+tagLen)
	var frames [][]byte
	want := []uint64{41, 42, 1000}
	for _, seq := range want {
		ev := &group.CastEvent{}
		ev.Msg = appia.NewMessage(spec.fill(buf, seq))
		f, err := transport.Marshal(appia.DefaultRegistry(), "data", ev)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	dgram := container(2, "data@3", "data", frames...)

	var got []uint64
	for off := 0; ; {
		origin, seq, next, ok := nextTag(dgram, off)
		if !ok {
			break
		}
		off = next
		if origin != spec.origin(seq) {
			t.Errorf("cast %d: origin %d, want %d", seq, origin, spec.origin(seq))
		}
		got = append(got, seq)
	}
	if len(got) != len(want) {
		t.Fatalf("found casts %v in the container, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("found casts %v in the container, want %v", got, want)
		}
	}

	// A magic whose origin is out of range is not a tag.
	bogus := append([]byte(tagMagic), make([]byte, 12)...)
	binary.BigEndian.PutUint32(bogus[4:8], maxMembers)
	if _, _, _, ok := nextTag(bogus, 0); ok {
		t.Error("nextTag accepted a tag with an out-of-range origin")
	}
}

// deliverAll hands cast seq to every member except skip (-1 for none).
func deliverAll(c *checker, seq uint64, skip int) {
	p := c.spec.fill(make([]byte, len(c.spec.pattern)+tagLen), seq)
	for m := range c.ids {
		if m != skip {
			c.deliver(m, c.ids[c.spec.origin(seq)], p)
		}
	}
}

func newTestChecker(t *testing.T) *checker {
	t.Helper()
	spec := newCastSpec(3, []int{64}, rand.New(rand.NewPCG(1, 2)))
	c, free, err := newChecker(spec, []morpheus.NodeID{1, 2, 3}, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(free)
	return c
}

func TestCheckerCountsFailures(t *testing.T) {
	const sent = 12
	t.Run("clean", func(t *testing.T) {
		c := newTestChecker(t)
		for s := uint64(0); s < sent; s++ {
			c.arm(s, mono())
			deliverAll(c, s, -1)
		}
		if f := c.finish(sent); f != 0 || c.violations.Load() != 0 || c.completed.Load() != sent {
			t.Fatalf("failed=%d violations=%d completed=%d; want 0, 0, %d", f, c.violations.Load(), c.completed.Load(), sent)
		}
	})
	t.Run("dropped", func(t *testing.T) {
		c := newTestChecker(t)
		for s := uint64(0); s < sent; s++ {
			c.arm(s, mono())
			skip := -1
			if s == 5 {
				skip = 2
			}
			deliverAll(c, s, skip)
		}
		if f := c.finish(sent); f != 1 {
			t.Fatalf("failed=%d; want 1 for one dropped delivery", f)
		}
		if c.completed.Load() != sent-1 {
			t.Errorf("completed=%d; want %d", c.completed.Load(), sent-1)
		}
	})
	t.Run("duplicated", func(t *testing.T) {
		c := newTestChecker(t)
		for s := uint64(0); s < sent; s++ {
			c.arm(s, mono())
			skip := -1
			if s == 7 {
				skip = 2
			}
			deliverAll(c, s, skip)
		}
		// A second copy at member 1 must neither count nor complete the
		// cast member 3 never delivered.
		p := c.spec.fill(make([]byte, 128), 7)
		c.deliver(0, c.ids[c.spec.origin(7)], p)
		if c.completed.Load() != sent-1 {
			t.Errorf("completed=%d; want %d: the duplicate completed cast 7", c.completed.Load(), sent-1)
		}
		if f := c.finish(sent); f != 1 {
			t.Fatalf("failed=%d; want 1 for one duplicated (and one missing) delivery", f)
		}
	})
	t.Run("reordered", func(t *testing.T) {
		c := newTestChecker(t)
		for s := uint64(0); s < sent; s++ {
			c.arm(s, mono())
		}
		// Casts 3 and 6 share an origin; every member gets 6 first.
		for _, s := range []uint64{0, 1, 2, 4, 5, 6, 3, 7, 8, 9, 10, 11} {
			deliverAll(c, s, -1)
		}
		if f := c.finish(sent); f != 1 {
			t.Fatalf("failed=%d; want 1: cast 3 was delivered out of FIFO order", f)
		}
		if c.completed.Load() != sent {
			t.Errorf("completed=%d; a late delivery still completes its cast", c.completed.Load())
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		c := newTestChecker(t)
		c.arm(0, mono())
		p := c.spec.fill(make([]byte, 128), 0)
		p[tagLen+3] ^= 0xff
		c.deliver(0, c.ids[c.spec.origin(0)], p)
		if f := c.finish(1); f != 1 {
			t.Fatalf("failed=%d; want 1 for corrupted bytes", f)
		}
	})
}

func TestPauseOf(t *testing.T) {
	const floor = 100
	members := [][]gap{
		{{1000, 1500}, {5000, 9000}},
		{{4000, 4200}, {6000, 8000}, {20000, 20300}},
		{},
	}
	for _, tc := range []struct {
		w    window
		want int64
	}{
		{window{4500, 8500}, 4000}, // member 1's gap spans the reconfiguration
		{window{1200, 1300}, 500},  // inside one gap
		{window{9500, 9900}, floor},
		{window{19000, 20100}, 300}, // overlaps a gap that ends later
		{window{1500, 4000}, floor}, // touches gaps only at their ends
	} {
		if got := pauseOf(tc.w, members, floor); got != tc.want {
			t.Errorf("pauseOf(%+v) = %d; want %d", tc.w, got, tc.want)
		}
	}

	// Gaps recorded by the checker itself.
	spec := newCastSpec(2, []int{64}, rand.New(rand.NewPCG(3, 3)))
	c, free, err := newChecker(spec, []morpheus.NodeID{1, 2}, 8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer free()
	for s := uint64(0); s < 3; s++ {
		c.arm(s, mono())
		deliverAll(c, s, -1)
		sleep(2e6)
	}
	for m, gs := range c.gaps() {
		if len(gs) != 2 {
			t.Fatalf("member %d recorded %d gaps, want 2", m+1, len(gs))
		}
		if gs[0].to-gs[0].from < 2e6 || gs[1].from < gs[0].to {
			t.Errorf("member %d gaps %+v: want two ordered gaps of at least 2ms", m+1, gs)
		}
	}
}
