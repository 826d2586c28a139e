package group

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"morpheus/internal/appia"
)

// ErrUnboundedNak reports a NakConfig whose negative StableInterval
// disables stability gossip — the only mechanism bounding the
// retransmission buffers — without the explicit UnboundedBuffers opt-in.
var ErrUnboundedNak = errors.New(
	"group: negative StableInterval disables stability gossip and lets retransmission buffers grow without bound; set UnboundedBuffers to opt in")

// CreditReleaser receives send-window credits back as the reliable layer
// observes stability (internal/flowctl.Window implements it; the interface
// keeps this package substrate- and window-implementation-blind).
type CreditReleaser interface {
	Release(n int)
}

// NakConfig configures the reliable FIFO multicast layer.
type NakConfig struct {
	// Self is this node's identifier.
	Self appia.NodeID
	// Group names the group this layer serves on a multi-group node; it is
	// stamped onto delivered casts so cross-group leakage is observable.
	// Empty for single-group (or control) channels.
	Group string
	// InitialMembers seeds the stability peer set until the first view.
	InitialMembers []appia.NodeID
	// NackDelay is how long a gap may stand before a retransmission
	// request is sent to the origin. Zero means 20ms.
	NackDelay time.Duration
	// StableInterval is the period of delivered-vector gossip used to
	// garbage-collect retransmission buffers. Zero means 250ms; negative
	// disables stability gossip (buffers then grow without bound — only
	// for short-lived test channels).
	StableInterval time.Duration
	// StableEvery, when positive, additionally gossips the delivered
	// vector after every StableEvery-th delivered cast, re-arming the
	// keepalive timer each time. Under sustained traffic the gossip
	// schedule then depends only on the (deterministic) delivery sequence;
	// the timer survives only as a keepalive for idle channels. The timer
	// runs on the channel scheduler's clock, so under the virtual clock
	// plane (internal/clock) even the idle keepalive is deterministic —
	// its former wall-clock ±1-tick measurement residual is gone, and
	// StableEvery is kept purely to bound buffer growth between idle
	// ticks under sustained load.
	StableEvery int
	// UnboundedBuffers acknowledges a negative StableInterval: without
	// stability gossip the sent/history buffers grow without bound, which
	// is acceptable only for short-lived test channels. Validate rejects
	// the combination unless this is set.
	UnboundedBuffers bool
	// Window, when non-nil, receives one credit back for every windowed
	// cast (CastEvent.Windowed) this session originated, once stability
	// gossip shows every peer delivered it — and for every windowed cast
	// still unconfirmed at channel teardown, where the view-synchronous
	// flush has already equalised deliveries. This wires the NAK
	// DeliveredVector watermarks into the per-group send window.
	Window CreditReleaser
	// BytesWindow, when non-nil, receives CastEvent.WindowBytes byte
	// credits back on exactly the same watermarks as Window: stability
	// confirmation, view install, and channel teardown. It wires the
	// byte-denominated send window (flowctl credits per payload byte)
	// through the reliable layer.
	BytesWindow CreditReleaser
	// MaxRetained hard-caps each retention map (own-cast retransmission
	// buffer, per-origin history, per-origin reorder buffer) at this many
	// entries. 0 means uncapped. With send windows active the caps are a
	// defensive backstop — the slowest-peer stability watermark already
	// bounds retention to the members' window sizes — so an eviction
	// (counted in Stats) indicates an accounting bug or an unwindowed
	// flooder. Evicted entries degrade repair (a peer that still needs
	// them must recover via flush or rejoin, exactly as for entries
	// garbage-collected by stability) but never FIFO correctness.
	MaxRetained int
}

// Validate rejects configurations that silently disable the only
// mechanism bounding retransmission-buffer growth.
func (c *NakConfig) Validate() error {
	if c.StableInterval < 0 && !c.UnboundedBuffers {
		return ErrUnboundedNak
	}
	return nil
}

func (c *NakConfig) nackDelay() time.Duration {
	if c.NackDelay == 0 {
		return 20 * time.Millisecond
	}
	return c.NackDelay
}

func (c *NakConfig) stableInterval() time.Duration {
	if c.StableInterval == 0 {
		return 250 * time.Millisecond
	}
	return c.StableInterval
}

// NakLayer provides reliable, per-origin FIFO multicast on top of any
// best-effort multicast bottom. Losses are detected as sequence gaps and
// repaired with point-to-point NACK retransmissions; delivered-vector
// gossip ("stability") bounds the retransmission buffers. This is the
// "detect and recover" error handling style of paper §2, appropriate at
// small error rates; the fec package provides the masking alternative.
type NakLayer struct {
	appia.BaseLayer
	cfg NakConfig
}

// NewNakLayer returns a reliable FIFO multicast layer.
func NewNakLayer(cfg NakConfig) *NakLayer {
	cfg.InitialMembers = NormalizeMembers(append([]appia.NodeID(nil), cfg.InitialMembers...))
	return &NakLayer{
		BaseLayer: appia.BaseLayer{
			LayerName: "group.nak",
			LayerSpec: appia.LayerSpec{
				Accepts: []appia.EventType{
					appia.T[*CastEvent](),
					appia.T[*Nack](),
					appia.T[*Stable](),
					appia.T[*VectorQuery](),
					appia.T[*ViewInstall](),
					appia.T[*StateTransfer](),
					appia.T[*nackTimeout](),
					appia.T[*stableTick](),
					appia.T[*appia.ChannelInit](),
				},
				Provides: []appia.EventType{
					appia.T[*Nack](),
					appia.T[*Stable](),
					appia.T[*CastEvent](),
				},
			},
		},
		cfg: cfg,
	}
}

// NewSession implements appia.Layer.
func (l *NakLayer) NewSession() appia.Session {
	return &nakSession{
		cfg:     l.cfg,
		members: l.cfg.InitialMembers,
		recv:    make(map[appia.NodeID]*originState),
		peerVec: make(map[appia.NodeID]DeliveredVector),
		nextSeq: 1,
	}
}

// NakStats are the reliable layer's retention high-water marks: the
// maximum entries ever held in the own-cast retransmission buffer, in the
// per-origin delivered-cast histories (summed over origins), and in the
// per-origin reorder buffers (summed), plus how many entries MaxRetained
// evicted. The marks are monotone and, under a virtual clock, a
// deterministic function of the run. Safe to read from any goroutine.
type NakStats struct {
	SentHighWater    int
	HistoryHighWater int
	BufferHighWater  int
	Evicted          int
}

// Merge returns the pointwise maximum (Evicted sums), for aggregating the
// marks of successive configuration epochs.
func (s NakStats) Merge(o NakStats) NakStats {
	return NakStats{
		SentHighWater:    max(s.SentHighWater, o.SentHighWater),
		HistoryHighWater: max(s.HistoryHighWater, o.HistoryHighWater),
		BufferHighWater:  max(s.BufferHighWater, o.BufferHighWater),
		Evicted:          s.Evicted + o.Evicted,
	}
}

// originState tracks reception from one origin.
type originState struct {
	next      uint64                  // next sequence number to deliver
	known     uint64                  // highest sequence known to exist (buffered or gossiped)
	buffer    map[uint64]heldCast     // reorder buffer: casts above a gap
	history   seqRing[appia.Sendable] // delivered casts kept for peers
	nackArmed bool
	nackTries int
	cancel    func()
}

// heldCast is a cast waiting in the reorder buffer: the event to forward
// once the gap below it closes, and its wire-shaped copy for the history.
type heldCast struct {
	ev   appia.Sendable
	wire appia.Sendable
}

// missing reports whether this origin has sequence numbers we still lack.
func (st *originState) missing() bool {
	return len(st.buffer) > 0 || st.known >= st.next
}

type nakSession struct {
	cfg     NakConfig
	members []appia.NodeID

	nextSeq uint64                  // next sequence number for own casts
	sent    seqRing[appia.Sendable] // retransmission buffer (own casts)
	recv    map[appia.NodeID]*originState
	peerVec map[appia.NodeID]DeliveredVector // last stability vector per peer

	// windowed tracks which of our own seqs hold send-window credits,
	// independently of sent (an evicted sent entry must still release its
	// credits when its stability watermark arrives). The value is the
	// cast's byte-window cost (0 with byte windowing disabled); presence
	// alone marks the message credit.
	windowed seqRing[int]

	// Retention accounting: live totals (scheduler goroutine only) and
	// atomic high-water marks readable from any goroutine.
	cntHistory int
	cntBuffer  int
	hwSent     atomic.Int64
	hwHistory  atomic.Int64
	hwBuffer   atomic.Int64
	evicted    atomic.Int64

	stopStable  func()
	sinceGossip int // deliveries since the last stability gossip
}

// Stats snapshots the retention high-water marks (any goroutine).
func (s *nakSession) Stats() NakStats {
	return NakStats{
		SentHighWater:    int(s.hwSent.Load()),
		HistoryHighWater: int(s.hwHistory.Load()),
		BufferHighWater:  int(s.hwBuffer.Load()),
		Evicted:          int(s.evicted.Load()),
	}
}

// bumpHW raises a high-water mark to at least v. Stores race-free because
// only the scheduler goroutine writes them.
func bumpHW(hw *atomic.Int64, v int) {
	if int64(v) > hw.Load() {
		hw.Store(int64(v))
	}
}

var _ appia.Session = (*nakSession)(nil)

// Handle implements appia.Session.
func (s *nakSession) Handle(ch *appia.Channel, ev appia.Event) {
	// Events embedding CastEvent (Propose, Install, OrderEv, application
	// subtypes...) must take the cast path regardless of concrete type; a
	// type switch alone cannot express that.
	if c, ok := ev.(Caster); ok {
		s.processCast(ch, c)
		return
	}
	switch e := ev.(type) {
	case *appia.ChannelInit:
		s.armStable(ch)
		ch.Forward(ev)
	case *appia.ChannelClose:
		if s.stopStable != nil {
			s.stopStable()
		}
		for _, st := range s.recv {
			if st.cancel != nil {
				st.cancel()
			}
		}
		// Teardown releases every credit this channel still holds: the
		// view-synchronous flush that precedes a reconfiguration has
		// equalised deliveries (and a force-closed channel's casts are
		// gone either way — holding their credits would leak the
		// window). Casts still buffered above in the GMS keep their
		// credits: the stack manager rescues and resubmits them.
		s.releaseAllWindowed()
		ch.Forward(ev)
	case *Nack:
		s.handleNack(ch, e)
	case *Stable:
		s.handleStable(ch, e)
	case *VectorQuery:
		e.Vector = s.deliveredVector()
		ch.Bounce(ev)
	case *ViewInstall:
		s.handleView(ch, e)
	case *StateTransfer:
		s.handleStateTransfer(ch, e)
	case *nackTimeout:
		s.fireNack(ch, e.origin)
	case *stableTick:
		s.gossipStable(ch)
		s.armStable(ch)
	default:
		ch.Forward(ev)
	}
}

func (s *nakSession) processCast(ch *appia.Channel, ev Caster) {
	if ev.CastBase().Dir() == appia.Down {
		s.sendCast(ch, ev)
		return
	}
	s.receiveCast(ch, ev)
}

// sendCast stamps, stores, self-delivers and spreads an outgoing cast.
func (s *nakSession) sendCast(ch *appia.Channel, ev Caster) {
	base := ev.CastBase()
	if base.Dest != appia.NoNode {
		// Addressed cast (a retransmission we produced below, or targeted
		// control): pass through untouched.
		ch.Forward(ev)
		return
	}
	if ch.State() == appia.ChannelClosed {
		// Teardown debris: a cast that raced Close into the mailbox (the
		// GMS forwards instead of pending these once stopped). The epoch
		// is dead — transmitting, buffering or self-delivering it would
		// all be wasted — so drop it here and return its credits, the one
		// thing that must not die with the channel.
		if base.Windowed {
			s.releaseCredits(1, base.WindowBytes)
		}
		return
	}
	seq := s.nextSeq
	s.nextSeq++
	m := base.EnsureMsg()
	m.PushUvarint(seq)
	m.PushUvarint(uint64(uint32(s.cfg.Self)))

	// Retransmission buffer keeps a full clone, preserving the concrete
	// type so a retransmitted Propose still decodes as a Propose.
	s.sent.push(seq, appia.CloneSendable(ev))
	if base.Windowed && (s.cfg.Window != nil || s.cfg.BytesWindow != nil) {
		s.windowed.push(seq, base.WindowBytes)
	}
	bumpHW(&s.hwSent, s.sent.size())
	if cap := s.cfg.MaxRetained; cap > 0 && s.sent.size() > cap {
		// Evict the oldest entry: it is the closest to its stability
		// watermark, and handleNack already treats a missing entry as
		// "garbage collected — recover via flush".
		s.evictLowest(&s.sent)
	}

	// Self-delivery: our own casts are in-order by construction, so they
	// skip the gap machinery and go straight up, looking exactly like a
	// delivered remote cast (headers popped, Origin/Seq set).
	st := s.origin(s.cfg.Self)
	if st.next == seq {
		st.next++
	}
	selfCopy := appia.CloneSendable(ev)
	scb := selfCopy.SendableBase()
	scb.Source = s.cfg.Self
	sm := scb.Msg
	if _, err := sm.PopUvarint(); err != nil { // origin
		return
	}
	if _, err := sm.PopUvarint(); err != nil { // seq
		return
	}
	if c, ok := selfCopy.(Caster); ok {
		cb := c.CastBase()
		cb.Origin = s.cfg.Self
		cb.Seq = seq
		cb.Group = s.cfg.Group
	}
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, selfCopy, appia.Up)
	s.countDelivery(ch)

	ch.Forward(ev)
}

// receiveCast handles an incoming (or self-copied) cast: pop headers,
// dedupe, deliver in per-origin order.
func (s *nakSession) receiveCast(ch *appia.Channel, ev Caster) {
	base := ev.CastBase()
	m := base.EnsureMsg()
	// The history copy is taken while the origin and seq headers are
	// still on: it shares the received buffer, already wire-shaped for a
	// retransmission, and the pops below stay private to ev.
	wire := appia.CloneSendable(ev)
	o, err := m.PopUvarint()
	if err != nil {
		releaseRetained(wire)
		return // corrupt: drop
	}
	seq, err := m.PopUvarint()
	if err != nil {
		releaseRetained(wire)
		return
	}
	origin := appia.NodeID(uint32(o))
	base.Origin = origin
	base.Seq = seq
	base.Group = s.cfg.Group

	st := s.origin(origin)
	if seq > st.known {
		st.known = seq
	}
	switch {
	case seq < st.next:
		releaseRetained(wire)
		return // duplicate
	case seq == st.next:
		st.next++
		s.storeHistory(st, seq, wire)
		ch.Forward(ev)
		s.countDelivery(ch)
		s.drain(ch, origin, st)
	default:
		if _, dup := st.buffer[seq]; dup {
			releaseRetained(wire)
		} else {
			// Buffer the event itself; we re-forward it when the gap
			// closes.
			st.buffer[seq] = heldCast{ev: ev, wire: wire}
			s.cntBuffer++
			bumpHW(&s.hwBuffer, s.cntBuffer)
			if cap := s.cfg.MaxRetained; cap > 0 && len(st.buffer) > cap {
				// Evict the HIGHEST buffered seq: the lowest entries are
				// what closes the gap, and st.known already records the
				// evicted seq's existence, so the NACK rotation will
				// re-request it once the gap in front has drained.
				var high uint64
				for q := range st.buffer {
					if q > high {
						high = q
					}
				}
				releaseRetained(st.buffer[high].wire)
				delete(st.buffer, high)
				s.cntBuffer--
				s.evicted.Add(1)
			}
		}
		s.armNack(ch, origin, st)
	}
}

// drain delivers any buffered casts that are now in order.
func (s *nakSession) drain(ch *appia.Channel, origin appia.NodeID, st *originState) {
	for {
		h, ok := st.buffer[st.next]
		if !ok {
			break
		}
		seq := st.next
		delete(st.buffer, seq)
		s.cntBuffer--
		st.next++
		s.storeHistory(st, seq, h.wire)
		ch.Forward(h.ev)
		s.countDelivery(ch)
	}
	if !st.missing() {
		if st.cancel != nil {
			st.cancel()
			st.cancel = nil
		}
		st.nackArmed = false
		st.nackTries = 0
	}
}

// storeHistory keeps the wire-shaped copy of a delivered cast so this node
// can retransmit on behalf of a crashed or partitioned origin. Casts are
// delivered at seq == st.next, which only grows, so each origin's history
// is appended in increasing seq order. History is pruned by the same
// stability watermarks as the send buffer.
func (s *nakSession) storeHistory(st *originState, seq uint64, wire appia.Sendable) {
	st.history.push(seq, wire)
	s.cntHistory++
	bumpHW(&s.hwHistory, s.cntHistory)
	if cap := s.cfg.MaxRetained; cap > 0 && st.history.size() > cap {
		s.evictLowest(&st.history)
		s.cntHistory--
	}
}

// evictLowest drops and releases the lowest-sequence entry of a retention
// set and counts the eviction.
func (s *nakSession) evictLowest(r *seqRing[appia.Sendable]) {
	releaseRetained(r.popLow().v)
	s.evicted.Add(1)
}

// releaseRetained retires a retained copy's message. Every retained copy
// is a clone this layer made and no other layer holds, and a clone shares
// its buffer by reference count: the buffer is recycled only when no
// delivered or in-flight copy still uses it.
func releaseRetained(e appia.Sendable) { e.SendableBase().ReleaseMsg() }

// armNack schedules a retransmission request for the lowest gap.
func (s *nakSession) armNack(ch *appia.Channel, origin appia.NodeID, st *originState) {
	if st.nackArmed {
		return
	}
	if len(s.members) == 1 && s.members[0] == s.cfg.Self && origin != s.cfg.Self {
		// Pre-admission singleton (a JoinVia bootstrap whose state transfer
		// has not landed yet): a remote cast racing ahead of the transfer
		// looks like a giant gap from sequence 1, but the frontier the
		// transfer carries is about to close it wholesale — NACKing now
		// would demand a history replay the join protocol exists to avoid.
		return
	}
	st.nackArmed = true
	sess := appia.Session(s)
	st.cancel = ch.DeliverAfter(s.cfg.nackDelay(), sess, &nackTimeout{origin: origin})
}

// fireNack sends the NACK for the current gap, if any, and rearms. The
// first requests go to the origin; if it stays silent (crashed,
// partitioned), subsequent requests rotate through the other members,
// which keep a retransmission history for exactly this purpose.
func (s *nakSession) fireNack(ch *appia.Channel, origin appia.NodeID) {
	st := s.origin(origin)
	st.nackArmed = false
	st.cancel = nil
	if !st.missing() {
		return // gap closed meanwhile
	}
	// Request up to the first buffered message, or — when nothing is
	// buffered and the gap is known only from stability gossip — up to the
	// gossiped high-water mark.
	to := st.known
	for seq := range st.buffer {
		if seq-1 < to {
			to = seq - 1
		}
	}
	if to < st.next {
		// Everything below the buffer is here; the buffer itself cannot
		// drain yet only if a middle gap exists, which the loop above
		// would have found. Nothing to request.
		s.armNack(ch, origin, st)
		return
	}
	target := s.nackTarget(origin, st.nackTries)
	st.nackTries++
	n := &Nack{Origin: origin, From: st.next, To: to}
	n.Dest = target
	n.Class = appia.ClassControl
	m := n.EnsureMsg()
	m.PushUvarint(n.To)
	m.PushUvarint(n.From)
	m.PushUvarint(uint64(uint32(origin)))
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, n, appia.Down)
	// Rearm in case the retransmission is itself lost.
	s.armNack(ch, origin, st)
}

// nackTarget picks whom to ask on the given retry round: the origin first
// (twice, since it is the most likely holder), then a rotation over every
// member including the origin, so requests keep reaching it even when
// intermediate peers cannot help.
func (s *nakSession) nackTarget(origin appia.NodeID, tries int) appia.NodeID {
	if tries < 2 {
		return origin
	}
	candidates := []appia.NodeID{origin}
	for _, m := range s.members {
		if m != s.cfg.Self && m != origin {
			candidates = append(candidates, m)
		}
	}
	return candidates[(tries-2)%len(candidates)]
}

// handleNack answers a retransmission request from our buffer.
func (s *nakSession) handleNack(ch *appia.Channel, e *Nack) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	m := e.EnsureMsg()
	o, err1 := m.PopUvarint()
	from, err2 := m.PopUvarint()
	to, err3 := m.PopUvarint()
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	origin := appia.NodeID(uint32(o))
	requester := e.SendableBase().Source
	sess := appia.Session(s)
	lookup := func(seq uint64) (appia.Sendable, bool) {
		if origin == s.cfg.Self {
			return s.sent.get(seq)
		}
		ost, ok := s.recv[origin]
		if !ok {
			return nil, false
		}
		return ost.history.get(seq)
	}
	for seq := from; seq <= to; seq++ {
		stored, ok := lookup(seq)
		if !ok {
			continue // already garbage collected: peer must rejoin via flush
		}
		cp := appia.CloneSendable(stored)
		cb := cp.SendableBase()
		cb.Dest = requester
		cb.Class = appia.ClassControl
		_ = ch.SendFrom(sess, cp, appia.Down)
	}
}

// armStable (re-)schedules the stability keepalive on the scheduler's
// clock (virtual under the deterministic time plane, wall otherwise). A
// negative StableInterval disables stability gossip entirely.
func (s *nakSession) armStable(ch *appia.Channel) {
	if s.cfg.StableInterval < 0 {
		return
	}
	if s.stopStable != nil {
		s.stopStable()
	}
	sess := appia.Session(s)
	s.stopStable = ch.DeliverAfter(s.cfg.stableInterval(), sess, &stableTick{})
}

// countDelivery advances the delivery-driven gossip schedule: with
// StableEvery set, every StableEvery-th delivered cast gossips immediately
// and pushes the idle keepalive back, so under load the gossip points
// are a pure function of the delivery sequence.
func (s *nakSession) countDelivery(ch *appia.Channel) {
	if s.cfg.StableEvery <= 0 || s.cfg.StableInterval < 0 {
		return
	}
	s.sinceGossip++
	if s.sinceGossip >= s.cfg.StableEvery {
		s.gossipStable(ch)
		s.armStable(ch)
	}
}

// gossipStable multicasts our delivered vector. The gossiper's identity
// travels as a message header rather than relying on the substrate-level
// Source: relaying bottoms (Mecho's echo, epidemic forwarding) re-stamp
// Source with the forwarder, which used to file a relayed peer's vector
// under the relay's key — so on relayed stacks the stability view never
// covered every member and the retransmission buffers never pruned (the
// silent unbounded-memory leak this PR's flow-control plane surfaced as a
// hard credit stall).
func (s *nakSession) gossipStable(ch *appia.Channel) {
	s.sinceGossip = 0
	st := &Stable{Vector: s.deliveredVector()}
	st.Class = appia.ClassControl
	m := st.EnsureMsg()
	st.Vector.push(m)
	m.PushUvarint(uint64(uint32(s.cfg.Self)))
	sess := appia.Session(s)
	_ = ch.SendFrom(sess, st, appia.Down)
	// Gossip points double as local prune points: our own vector just
	// advanced, and for a single-member group (no peers to ever gossip
	// back) this is the only trigger that retires sent entries and their
	// send-window credits.
	s.prune()
}

// handleStable records a peer vector and prunes the send buffer.
func (s *nakSession) handleStable(ch *appia.Channel, e *Stable) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	m := e.EnsureMsg()
	o, err := m.PopUvarint()
	if err != nil {
		return
	}
	vec, err := popVector(m)
	if err != nil {
		return
	}
	gossiper := appia.NodeID(uint32(o))
	s.peerVec[gossiper] = vec
	// Stability gossip doubles as loss advertisement: a peer that has
	// delivered seq k from some origin proves k exists, so if we are
	// behind we can request a repair — this is the only way to recover a
	// lost *final* message, which no subsequent gap would ever reveal.
	// Iterate in sorted origin order: armNack registers timers, and under
	// the virtual clock same-deadline timers fire in registration order —
	// map-order iteration here would be the run's only nondeterminism.
	for _, origin := range vec.SortedOrigins() {
		if origin == s.cfg.Self {
			continue
		}
		high := vec[origin]
		st := s.origin(origin)
		if high > st.known {
			st.known = high
		}
		if st.missing() {
			s.armNack(ch, origin, st)
		}
	}
	s.prune()
}

// releaseCredits returns n message credits and b byte credits to their
// respective windows (either may be absent).
func (s *nakSession) releaseCredits(n, b int) {
	if n > 0 && s.cfg.Window != nil {
		s.cfg.Window.Release(n)
	}
	if b > 0 && s.cfg.BytesWindow != nil {
		s.cfg.BytesWindow.Release(b)
	}
}

// releaseAllWindowed returns every credit the session still holds (channel
// teardown, view install).
func (s *nakSession) releaseAllWindowed() {
	n, bytes := s.windowed.size(), 0
	for s.windowed.size() > 0 {
		bytes += s.windowed.popLow().v
	}
	s.releaseCredits(n, bytes)
}

// prune drops send-buffer and history entries that every member has
// delivered. Each retention set is seq-ordered, so the work is the entries
// retired plus one comparison per set.
func (s *nakSession) prune() {
	stableFor := func(origin appia.NodeID) (uint64, bool) {
		min := s.delivered(origin)
		for _, m := range s.members {
			if m == s.cfg.Self {
				continue
			}
			vec, ok := s.peerVec[m]
			if !ok {
				return 0, false // unknown peer state: keep everything
			}
			if vec[origin] < min {
				min = vec[origin]
			}
		}
		return min, true
	}
	if s.sent.size() > 0 || s.windowed.size() > 0 {
		if min, ok := stableFor(s.cfg.Self); ok {
			for s.sent.size() > 0 && s.sent.low() <= min {
				releaseRetained(s.sent.popLow().v)
			}
			// Credits return on the same watermark that prunes the send
			// buffer: a windowed cast every member has delivered no longer
			// occupies the group's send window. The windowed set survives
			// MaxRetained evictions of sent entries, so a credit is never
			// lost to the cap.
			released, releasedBytes := 0, 0
			for s.windowed.size() > 0 && s.windowed.low() <= min {
				released++
				releasedBytes += s.windowed.popLow().v
			}
			s.releaseCredits(released, releasedBytes)
		}
	}
	for origin, st := range s.recv {
		if st.history.size() == 0 {
			continue
		}
		min, ok := stableFor(origin)
		if !ok {
			continue
		}
		for st.history.size() > 0 && st.history.low() <= min {
			releaseRetained(st.history.popLow().v)
			s.cntHistory--
		}
	}
}

// handleView adopts a new membership: forget excluded origins and their
// pending gaps (the flush protocol has already equalised deliveries among
// survivors).
func (s *nakSession) handleView(ch *appia.Channel, e *ViewInstall) {
	if e.Dir() != appia.Down {
		ch.Forward(e)
		return
	}
	s.members = e.View.Members
	for origin, st := range s.recv {
		if !e.View.Contains(origin) {
			if st.cancel != nil {
				st.cancel()
			}
			s.cntHistory -= st.history.size()
			s.cntBuffer -= len(st.buffer)
			delete(s.recv, origin)
		}
	}
	for peer := range s.peerVec {
		if !e.View.Contains(peer) {
			delete(s.peerVec, peer)
		}
	}
	// A view installs only after the flush reports converged: every
	// surviving member has delivered every cast we originated (our own
	// report pins origin=self at nextSeq−1, and convergence makes all
	// reports equal). Windowed application casts cannot slip in after
	// the report snapshot — the GMS blocks them — so every held credit
	// is provably stable and returns here wholesale. This is also what
	// promptly unblocks senders stalled on a partitioned peer: the
	// eviction's view change is the release. (The sent/history maps
	// keep stability-based pruning: control casts issued mid-flush,
	// such as the Install itself, may still need retransmitting.)
	s.releaseAllWindowed()
	ch.Forward(e) // the best-effort bottom needs it too
}

// handleStateTransfer bootstraps reception state on a joiner.
func (s *nakSession) handleStateTransfer(ch *appia.Channel, e *StateTransfer) {
	if e.Dir() == appia.Down {
		ch.Forward(e)
		return
	}
	// Headers: view, vector (pushed by GMS on the coordinator).
	m := e.EnsureMsg()
	v, err := popView(m)
	if err != nil {
		return
	}
	vec, err := popVector(m)
	if err != nil {
		return
	}
	e.NewView = v
	e.Vector = vec
	// Adopt the membership before arming any repair: until the GMS above
	// commits the view and its ViewInstall travels back down, the session
	// still looks like a pre-admission singleton, which armNack refuses.
	s.members = append([]appia.NodeID(nil), v.Members...)
	for _, origin := range vec.SortedOrigins() {
		next := vec[origin]
		if origin == s.cfg.Self {
			// Sequence-space continuity on rejoin: if the group has already
			// delivered casts under our identifier (a previous incarnation
			// that left and came back), never reuse those numbers — peers
			// would drop the fresh casts as duplicates.
			if s.nextSeq < next+1 {
				s.nextSeq = next + 1
			}
			continue
		}
		st := s.origin(origin)
		if st.next < next+1 {
			st.next = next + 1
		}
		// Casts below the frontier were delivered (and stabilised) by the
		// running group before we existed: they are not gaps to repair.
		// Casts at or above it may already sit in the reorder buffer — a
		// multicast can race ahead of the point-to-point transfer — so
		// drain what is now in order and arm repair for what is not.
		for seq := range st.buffer {
			if seq < st.next {
				delete(st.buffer, seq)
				s.cntBuffer--
			}
		}
		s.drain(ch, origin, st)
		if st.missing() {
			s.armNack(ch, origin, st)
		}
	}
	ch.Forward(e) // GMS above also consumes it
}

// origin returns (allocating) the reception state for an origin.
func (s *nakSession) origin(id appia.NodeID) *originState {
	st, ok := s.recv[id]
	if !ok {
		st = &originState{next: 1, buffer: make(map[uint64]heldCast)}
		s.recv[id] = st
	}
	return st
}

// delivered is one origin's entry of deliveredVector, computed without
// building the vector.
func (s *nakSession) delivered(origin appia.NodeID) uint64 {
	var d uint64
	if st, ok := s.recv[origin]; ok && st.next > 1 {
		d = st.next - 1
	}
	if origin == s.cfg.Self && s.nextSeq > 1 && d < s.nextSeq-1 {
		d = s.nextSeq - 1
	}
	return d
}

// deliveredVector snapshots the per-origin contiguous delivery watermark.
func (s *nakSession) deliveredVector() DeliveredVector {
	dv := make(DeliveredVector, len(s.recv)+1)
	for origin, st := range s.recv {
		if st.next > 1 {
			dv[origin] = st.next - 1
		}
	}
	// Our own casts count as delivered up to nextSeq-1 (self-delivery is
	// immediate).
	if s.nextSeq > 1 {
		if cur, ok := dv[s.cfg.Self]; !ok || cur < s.nextSeq-1 {
			dv[s.cfg.Self] = s.nextSeq - 1
		}
	}
	return dv
}

// sortedGaps returns buffered-but-undeliverable seqs per origin (tests).
func (s *nakSession) sortedGaps(origin appia.NodeID) []uint64 {
	st, ok := s.recv[origin]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(st.buffer))
	for seq := range st.buffer {
		out = append(out, seq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
