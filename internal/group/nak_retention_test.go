package group

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/transport"
)

// creditLog is a CreditReleaser that records every release.
type creditLog struct {
	mu    sync.Mutex
	total int
}

func (c *creditLog) Release(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total += n
}

func (c *creditLog) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// frameLog is a bottom layer that consumes every downward Sendable and
// records it as the transport would put it on the wire.
type frameLog struct {
	appia.BaseLayer
	reg    *appia.EventKindRegistry
	mu     sync.Mutex
	frames [][]byte
	dests  []appia.NodeID
}

func newFrameLog(reg *appia.EventKindRegistry) *frameLog {
	return &frameLog{reg: reg, BaseLayer: appia.BaseLayer{
		LayerName: "test.frames",
		LayerSpec: appia.LayerSpec{
			Accepts:  []appia.EventType{appia.TIface[appia.Sendable]()},
			Provides: []appia.EventType{appia.TIface[appia.Sendable]()},
		},
	}}
}

func (l *frameLog) NewSession() appia.Session {
	return appia.SessionFunc(func(ch *appia.Channel, ev appia.Event) {
		sb, ok := ev.(appia.Sendable)
		if !ok || sb.SendableBase().Dir() != appia.Down {
			ch.Forward(ev)
			return
		}
		wire, err := transport.Marshal(l.reg, ch.Name(), sb)
		if err != nil {
			panic(err)
		}
		l.mu.Lock()
		l.frames = append(l.frames, wire)
		l.dests = append(l.dests, sb.SendableBase().Dest)
		l.mu.Unlock()
	})
}

func (l *frameLog) snapshot() ([][]byte, []appia.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.frames...), append([]appia.NodeID(nil), l.dests...)
}

// nakRig is one node's reliable layer over a frame log, with no timers
// that could fire during a test: stability gossip is off (the test plays
// the peers' Stable messages) and NACK timers sit an hour out.
type nakRig struct {
	t         *testing.T
	reg       *appia.EventKindRegistry
	sched     *appia.Scheduler
	ch        *appia.Channel
	sess      *nakSession
	frames    *frameLog
	msgs      *creditLog
	bytes     *creditLog
	mu        sync.Mutex
	delivered []*CastEvent
}

func newNakRig(t *testing.T, maxRetained int) *nakRig {
	t.Helper()
	r := &nakRig{t: t, reg: appia.NewEventKindRegistry(), msgs: &creditLog{}, bytes: &creditLog{}}
	RegisterWireEvents(r.reg)
	r.frames = newFrameLog(r.reg)
	nak := NewNakLayer(NakConfig{
		Self:             1,
		InitialMembers:   []appia.NodeID{1, 2, 3},
		NackDelay:        time.Hour,
		StableInterval:   -1,
		UnboundedBuffers: true,
		Window:           r.msgs,
		BytesWindow:      r.bytes,
		MaxRetained:      maxRetained,
	})
	q, err := appia.NewQoS("nak-rig", r.frames, nak)
	if err != nil {
		t.Fatal(err)
	}
	r.sched = appia.NewScheduler()
	t.Cleanup(r.sched.Close)
	r.ch = q.CreateChannel("data", r.sched, appia.WithDeliver(func(ev appia.Event) {
		if c, ok := ev.(*CastEvent); ok {
			r.mu.Lock()
			r.delivered = append(r.delivered, c)
			r.mu.Unlock()
		}
	}))
	if err := r.ch.Start(); err != nil {
		t.Fatal(err)
	}
	if !r.ch.WaitReady(2 * time.Second) {
		t.Fatal("channel never became ready")
	}
	sess, ok := r.ch.SessionFor("group.nak").(*nakSession)
	if !ok {
		t.Fatal("nak session missing")
	}
	r.sess = sess
	return r
}

func (r *nakRig) insert(ev appia.Event, dir appia.Direction) {
	r.t.Helper()
	if err := r.ch.Insert(ev, dir); err != nil {
		r.t.Fatal(err)
	}
}

// send originates a windowed cast costing the given byte credits.
func (r *nakRig) send(body string, bytes int) {
	ev := &CastEvent{Windowed: true, WindowBytes: bytes}
	ev.Msg = appia.NewMessage([]byte(body))
	r.insert(ev, appia.Down)
}

// castFrame is the wire frame of origin's cast seq, as the origin's
// transport sends it.
func (r *nakRig) castFrame(origin appia.NodeID, seq uint64) []byte {
	ev := &CastEvent{}
	ev.Msg = appia.NewMessage([]byte(fmt.Sprintf("cast %d/%d", origin, seq)))
	ev.Msg.PushUvarint(seq)
	ev.Msg.PushUvarint(uint64(uint32(origin)))
	wire, err := transport.Marshal(r.reg, "data", ev)
	if err != nil {
		r.t.Fatal(err)
	}
	return wire
}

// receive decodes a wire frame as the transport does and inserts it.
func (r *nakRig) receive(src appia.NodeID, wire []byte) {
	r.t.Helper()
	_, ev, err := transport.Unmarshal(r.reg, wire)
	if err != nil {
		r.t.Fatal(err)
	}
	ev.SendableBase().Source = src
	ev.SendableBase().Dest = 1
	r.insert(ev, appia.Up)
}

// stable plays a peer's stability gossip.
func (r *nakRig) stable(gossiper appia.NodeID, vec DeliveredVector) {
	st := &Stable{}
	st.Source = gossiper
	m := st.EnsureMsg()
	vec.push(m)
	m.PushUvarint(uint64(uint32(gossiper)))
	r.insert(st, appia.Up)
}

// nack plays a peer's retransmission request.
func (r *nakRig) nack(requester, origin appia.NodeID, from, to uint64) {
	n := &Nack{}
	n.Source = requester
	m := n.EnsureMsg()
	m.PushUvarint(to)
	m.PushUvarint(from)
	m.PushUvarint(uint64(uint32(origin)))
	r.insert(n, appia.Up)
}

// retention is a snapshot of the session's retention state.
type retention struct {
	sent, windowed []uint64
	history        map[appia.NodeID][]uint64
	cntHistory     int
	nextSeq        uint64
	stats          NakStats
	delivered      int // casts delivered to the application
}

func ringSeqs[T any](r *seqRing[T]) []uint64 {
	out := []uint64{}
	for i := 0; i < r.size(); i++ {
		out = append(out, r.at(i).seq)
	}
	return out
}

// drain returns once everything inserted so far has been processed. Each
// routing hop is a scheduler task of its own, queued behind the tasks
// already waiting, so one Flush advances every event by at least one hop;
// no traversal in this rig takes more than four.
func (r *nakRig) drain() {
	for i := 0; i < 8; i++ {
		r.sched.Flush()
	}
}

// snapshot drains the rig and reads the retention state on the scheduler
// goroutine.
func (r *nakRig) snapshot() retention {
	r.t.Helper()
	r.drain()
	var out retention
	done := make(chan struct{})
	if err := r.sched.Do(func() {
		s := r.sess
		out.sent = ringSeqs(&s.sent)
		out.windowed = ringSeqs(&s.windowed)
		out.history = map[appia.NodeID][]uint64{}
		for o, st := range s.recv {
			if st.history.size() > 0 {
				out.history[o] = ringSeqs(&st.history)
			}
		}
		out.cntHistory = s.cntHistory
		out.nextSeq = s.nextSeq
		out.stats = s.Stats()
		close(done)
	}); err != nil {
		r.t.Fatal(err)
	}
	<-done
	r.mu.Lock()
	out.delivered = len(r.delivered)
	r.mu.Unlock()
	return out
}

func seqRange(lo, hi uint64) []uint64 {
	out := []uint64{}
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// sumTo is 1+2+...+n, the byte cost of casts 1..n in these tests.
func sumTo(n int) int { return n * (n + 1) / 2 }

// released checks the running credit totals.
func (r *nakRig) released(msgs, bytes int) {
	r.t.Helper()
	if r.msgs.get() != msgs || r.bytes.get() != bytes {
		r.t.Fatalf("released %d msgs / %d bytes, want %d / %d", r.msgs.get(), r.bytes.get(), msgs, bytes)
	}
}

func TestNakPruneKeepsExactlyTheUnstableEntries(t *testing.T) {
	r := newNakRig(t, 0)
	for i := 1; i <= 10; i++ {
		r.send(fmt.Sprintf("own %d", i), i)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		r.receive(2, r.castFrame(2, seq))
	}
	for seq := uint64(1); seq <= 8; seq++ {
		r.receive(3, r.castFrame(3, seq))
	}

	// Before any stability: everything retained, no credit back.
	got := r.snapshot()
	if got.delivered != 28 {
		t.Fatalf("delivered %d casts, want 28", got.delivered)
	}
	if !slices.Equal(got.sent, seqRange(1, 10)) || !slices.Equal(got.windowed, seqRange(1, 10)) {
		t.Fatalf("sent %v, windowed %v", got.sent, got.windowed)
	}
	if got.cntHistory != 18 || got.stats != (NakStats{SentHighWater: 10, HistoryHighWater: 18}) {
		t.Fatalf("cntHistory %d, stats %+v", got.cntHistory, got.stats)
	}
	r.released(0, 0)

	// Watermarks: self min(10, 4, 6) = 4; origin 2 min(10, 10, 7) = 7;
	// origin 3 min(8, 6, 8) = 6.
	r.stable(2, DeliveredVector{1: 4, 2: 10, 3: 6})
	r.stable(3, DeliveredVector{1: 6, 2: 7, 3: 8})
	got = r.snapshot()
	if !slices.Equal(got.sent, seqRange(5, 10)) || !slices.Equal(got.windowed, seqRange(5, 10)) {
		t.Fatalf("after prune: sent %v, windowed %v", got.sent, got.windowed)
	}
	if !slices.Equal(got.history[2], seqRange(8, 10)) || !slices.Equal(got.history[3], seqRange(7, 8)) {
		t.Fatalf("after prune: history %v", got.history)
	}
	if got.cntHistory != 5 {
		t.Fatalf("cntHistory = %d, want 5", got.cntHistory)
	}
	// High-water marks never fall.
	if got.stats != (NakStats{SentHighWater: 10, HistoryHighWater: 18}) {
		t.Fatalf("stats = %+v", got.stats)
	}
	r.released(4, sumTo(4))

	// The same gossip again retires nothing and releases nothing.
	r.stable(2, DeliveredVector{1: 4, 2: 10, 3: 6})
	r.stable(3, DeliveredVector{1: 6, 2: 7, 3: 8})
	if again := r.snapshot(); !slices.Equal(again.sent, got.sent) || again.cntHistory != 5 {
		t.Fatalf("repeated gossip pruned again: sent %v, cntHistory %d", again.sent, again.cntHistory)
	}
	r.released(4, sumTo(4))

	// Full stability empties every set; teardown then has nothing left.
	r.stable(2, DeliveredVector{1: 10, 2: 10, 3: 8})
	r.stable(3, DeliveredVector{1: 10, 2: 10, 3: 8})
	got = r.snapshot()
	if len(got.sent) != 0 || len(got.windowed) != 0 || len(got.history) != 0 || got.cntHistory != 0 {
		t.Fatalf("after full stability: %+v", got)
	}
	r.released(10, sumTo(10))
	if err := r.ch.Close(); err != nil {
		t.Fatal(err)
	}
	r.released(10, sumTo(10))
}

func TestNakCreditsSurviveMaxRetainedEviction(t *testing.T) {
	r := newNakRig(t, 3)
	for i := 1; i <= 10; i++ {
		r.send(fmt.Sprintf("own %d", i), i)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		r.receive(2, r.castFrame(2, seq))
	}

	got := r.snapshot()
	if !slices.Equal(got.sent, seqRange(8, 10)) || !slices.Equal(got.history[2], seqRange(8, 10)) {
		t.Fatalf("capped sets: sent %v, history %v", got.sent, got.history)
	}
	// The cap evicts after the mark is taken, so each mark reads cap+1.
	if got.stats != (NakStats{SentHighWater: 4, HistoryHighWater: 4, Evicted: 14}) || got.cntHistory != 3 {
		t.Fatalf("stats %+v, cntHistory %d", got.stats, got.cntHistory)
	}
	if !slices.Equal(got.windowed, seqRange(1, 10)) {
		t.Fatalf("windowed %v lost entries to the cap", got.windowed)
	}

	// Credits of evicted sends come back on their watermark.
	r.stable(2, DeliveredVector{1: 5, 2: 10})
	r.stable(3, DeliveredVector{1: 5, 2: 10})
	got = r.snapshot()
	if !slices.Equal(got.sent, seqRange(8, 10)) || !slices.Equal(got.windowed, seqRange(6, 10)) || len(got.history) != 0 {
		t.Fatalf("after watermark 5: sent %v, windowed %v, history %v", got.sent, got.windowed, got.history)
	}
	r.released(5, sumTo(5))

	r.stable(2, DeliveredVector{1: 10, 2: 10})
	r.stable(3, DeliveredVector{1: 10, 2: 10})
	if got = r.snapshot(); len(got.sent) != 0 || len(got.windowed) != 0 {
		t.Fatalf("after watermark 10: sent %v, windowed %v", got.sent, got.windowed)
	}
	if err := r.ch.Close(); err != nil {
		t.Fatal(err)
	}
	r.released(10, sumTo(10))
}

func TestNakCreditsReleasedOnceAcrossFrontierJump(t *testing.T) {
	r := newNakRig(t, 0)
	r.send("before 1", 1)
	r.send("before 2", 2)

	// A state transfer moves our own sequence space past a previous
	// incarnation's casts: the next own cast is 21.
	st := &StateTransfer{}
	st.Source = 2
	m := st.EnsureMsg()
	DeliveredVector{1: 20, 2: 5}.push(m)
	pushView(m, View{ID: 4, Members: []appia.NodeID{1, 2, 3}})
	r.insert(st, appia.Up)
	if got := r.snapshot(); got.nextSeq != 21 {
		t.Fatalf("nextSeq = %d after the transfer, want 21", got.nextSeq)
	}
	for i := 3; i <= 5; i++ {
		r.send(fmt.Sprintf("after %d", i), i)
	}
	got := r.snapshot()
	want := []uint64{1, 2, 21, 22, 23}
	if !slices.Equal(got.sent, want) || !slices.Equal(got.windowed, want) || got.delivered != 5 {
		t.Fatalf("sent %v, windowed %v, delivered %d; want %v and 5", got.sent, got.windowed, got.delivered, want)
	}

	// Watermark 2 releases the two casts below the jump, 22 one more.
	r.stable(2, DeliveredVector{1: 2})
	r.stable(3, DeliveredVector{1: 2})
	if got := r.snapshot(); !slices.Equal(got.windowed, []uint64{21, 22, 23}) {
		t.Fatalf("windowed %v after watermark 2", got.windowed)
	}
	r.released(2, 1+2)
	r.stable(2, DeliveredVector{1: 22})
	r.stable(3, DeliveredVector{1: 22})
	if got := r.snapshot(); !slices.Equal(got.sent, []uint64{23}) || !slices.Equal(got.windowed, []uint64{23}) {
		t.Fatalf("sent %v, windowed %v after watermark 22", got.sent, got.windowed)
	}
	r.released(4, 1+2+3+4)
	// Teardown returns the last credit, and only that one.
	if err := r.ch.Close(); err != nil {
		t.Fatal(err)
	}
	r.released(5, sumTo(5))
}

func TestNakRetransmitsByteIdenticalFrames(t *testing.T) {
	r := newNakRig(t, 0)
	// Own casts: what went out first is what a NACK gets back.
	for i := 1; i <= 3; i++ {
		r.send(fmt.Sprintf("own %d", i), 0)
	}
	// Remote casts, received out of order so one passes through the
	// reorder buffer before reaching the history.
	wires := map[uint64][]byte{}
	for _, seq := range []uint64{1, 3, 2, 4} {
		wires[seq] = r.castFrame(2, seq)
		r.receive(2, wires[seq])
	}
	if got := r.snapshot(); got.delivered != 7 || !slices.Equal(got.history[2], seqRange(1, 4)) {
		t.Fatalf("delivered %d, history %v", got.delivered, got.history)
	}
	sentFrames, _ := r.frames.snapshot()
	if len(sentFrames) != 3 {
		t.Fatalf("transmitted %d frames, want 3", len(sentFrames))
	}

	r.nack(3, 2, 1, 4)
	r.nack(3, 1, 1, 3)
	r.drain()
	frames, dests := r.frames.snapshot()
	if len(frames) != 3+4+3 {
		t.Fatalf("transmitted %d frames, want 10", len(frames))
	}
	for i, seq := range seqRange(1, 4) {
		if got := frames[3+i]; !bytes.Equal(got, wires[seq]) || dests[3+i] != 3 {
			t.Fatalf("history retransmission of 2/%d to %d:\n got %x\nwant %x", seq, dests[3+i], got, wires[seq])
		}
	}
	for i := 0; i < 3; i++ {
		if got := frames[7+i]; !bytes.Equal(got, sentFrames[i]) || dests[7+i] != 3 {
			t.Fatalf("sent retransmission of 1/%d to %d:\n got %x\nwant %x", i+1, dests[7+i], got, sentFrames[i])
		}
	}

	// The delivered casts are the bodies alone, untouched by the history
	// copies that share their buffers.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.delivered {
		want := fmt.Sprintf("cast %d/%d", c.Origin, c.Seq)
		if c.Origin == 1 {
			want = fmt.Sprintf("own %d", c.Seq)
		}
		if string(c.Msg.Bytes()) != want {
			t.Fatalf("delivered %q, want %q", c.Msg.Bytes(), want)
		}
	}
}
