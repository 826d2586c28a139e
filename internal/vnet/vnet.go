// Package vnet is an in-memory virtual network used as the testbed
// substrate for the Morpheus reproduction. It models the paper's two device
// populations — fixed PCs on a wired LAN and PDAs on an 802.11b cell — as
// segments with configurable latency, jitter, loss, native-multicast
// capability and (for wireless segments) a per-node energy budget.
//
// The quantity the paper measures (messages transmitted per node, split
// into data and control classes) is counted here, at the lowest level, so
// no protocol layer can forget to account for its traffic.
//
// A world runs on virtual time only: it is built on a *clock.Virtual, and
// there is one delivery path. A zero-latency frame is handed to its
// receiver synchronously on the sender's goroutine; a latency-delayed
// frame becomes an entry of the clock's timer heap, so frame deliveries
// interleave with protocol timers in one reproducible (deadline,
// registration) order. Live wall-time runs use the udpnet or loopnet
// substrates instead.
//
// The data plane is built for throughput: topology is behind a read-write
// lock, per-node traffic counters are lock-free atomics indexed by a small
// traffic-class enum, and the deterministic RNG sits behind its own narrow
// lock.
package vnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// NodeID aliases the kernel's node identifier.
type NodeID = appia.NodeID

// Kind aliases the substrate device classification (fixed/mobile).
type Kind = netio.Kind

// Device kinds.
const (
	Fixed  = netio.Fixed
	Mobile = netio.Mobile
)

// Errors returned by network operations. Where a substrate-independent
// condition exists the error wraps the netio sentinel, so both
// errors.Is(err, vnet.ErrUnknownNode) and errors.Is(err, netio.ErrUnknownNode)
// match.
var (
	ErrUnknownNode    = fmt.Errorf("vnet: %w", netio.ErrUnknownNode)
	ErrNodeDown       = errors.New("vnet: node is down")
	ErrNoMulticast    = fmt.Errorf("vnet: %w", netio.ErrNoMulticast)
	ErrNotAttached    = fmt.Errorf("vnet: node %w", netio.ErrNotAttached)
	ErrWorldClosed    = fmt.Errorf("vnet: world %w", netio.ErrClosed)
	ErrUnknownSegment = fmt.Errorf("vnet: %w", netio.ErrUnknownSegment)
	ErrFrameTooLarge  = fmt.Errorf("vnet: %w", netio.ErrFrameTooLarge)
)

// Handler aliases the substrate frame receiver; see netio.Handler for the
// borrowed-payload contract.
type Handler = netio.Handler

// SegmentConfig describes one network segment.
type SegmentConfig struct {
	// Name identifies the segment ("lan", "wlan", ...).
	Name string
	// Latency is the one-way propagation delay contributed by this
	// segment; zero means synchronous in-process delivery.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) component to Latency.
	Jitter time.Duration
	// Loss is the independent per-transmission drop probability
	// contributed by this segment, in [0,1].
	Loss float64
	// NativeMulticast enables one-transmission delivery to every node
	// attached to the segment (IP multicast on a LAN).
	NativeMulticast bool
	// Wireless marks the segment as energy-metered: transmissions and
	// receptions by nodes whose primary segment is this one drain their
	// battery.
	Wireless bool
}

// EnergyConfig aliases the substrate battery model; see netio.EnergyConfig.
type EnergyConfig = netio.EnergyConfig

// DefaultMobileEnergy returns a plausible PDA radio budget. Absolute values
// are arbitrary; experiments compare relative lifetimes.
func DefaultMobileEnergy() EnergyConfig {
	return EnergyConfig{
		CapacityJ:  50,
		TxPerMsgJ:  0.002,
		TxPerByteJ: 0.0000020,
		RxPerMsgJ:  0.001,
		RxPerByteJ: 0.0000010,
	}
}

// Traffic accounting aliases; the counter machinery lives in netio so
// every substrate accounts identically.
type (
	// Class is the traffic-class enum counters are indexed by.
	Class = netio.Class
	// ClassCount accumulates message and byte counts for one class.
	ClassCount = netio.ClassCount
	// Counters is a snapshot of a node's traffic, keyed by class.
	Counters = netio.Counters
)

// Traffic classes.
const (
	ClassData    = netio.ClassData
	ClassControl = netio.ClassControl
	ClassOther   = netio.ClassOther
)

// Segment is a broadcast domain.
type Segment struct {
	cfg   SegmentConfig
	nodes map[NodeID]*Node
	// sorted caches the attached nodes in ascending ID order, maintained
	// by AddNode, so the multicast fan-out neither allocates nor sorts
	// per frame — and consumes the deterministic RNG in a reproducible
	// receiver order.
	sorted []*Node
}

// delivery is one frame on its way to a receiver.
type delivery struct {
	src   NodeID
	dst   *Node
	port  string
	class string
	pb    *payloadBuf
	size  int
}

// payloadBuf is a pooled frame buffer. Frames are copied into one at the
// sender, lent to the receiving handler, and recycled when it returns.
type payloadBuf struct {
	b []byte
}

// maxPooledPayload keeps jumbo frames out of the pool.
const maxPooledPayload = 64 << 10

var payloadPool = sync.Pool{New: func() any { return new(payloadBuf) }}

// copyPayload fills a pooled buffer with an owned copy of p.
func copyPayload(p []byte) *payloadBuf {
	pb := payloadPool.Get().(*payloadBuf)
	if cap(pb.b) < len(p) {
		pb.b = make([]byte, len(p))
	}
	copy(pb.b[:len(p)], p)
	return pb
}

// recyclePayload returns a buffer to the pool.
func recyclePayload(pb *payloadBuf) {
	if cap(pb.b) <= maxPooledPayload {
		payloadPool.Put(pb)
	}
}

// World is the simulated network: nodes, segments and their virtual clock.
//
// Locking is sharded so the data plane never funnels through one mutex:
// topology (nodes, segments) is behind an RWMutex that the hot path only
// read-locks, and the RNG has its own lock.
type World struct {
	mu       sync.RWMutex // topology: nodes and segments
	nodes    map[NodeID]*Node
	segments map[string]*Segment
	// nodesView is a read-only snapshot of nodes, republished on every
	// AddNode, so the per-frame destination lookup is lock-free.
	nodesView atomic.Pointer[map[NodeID]*Node]

	closed atomic.Bool

	// faults is the chaos overlay (chaos.go): per-link loss/latency
	// overrides and partition cells. nil — the overwhelmingly common case —
	// means no fault is installed and the data plane takes the exact
	// pre-overlay path, RNG draw sequence included.
	faults  atomic.Pointer[faultState]
	faultMu sync.Mutex // serializes overlay copy-on-write mutations

	// clk is the world's time plane: delayed frames are entries of its
	// timer heap, and nodes started on the world inherit it.
	clk *clock.Virtual

	rngMu sync.Mutex // deterministic RNG; narrow, never held with others
	rng   *rand.Rand
}

// NewWorld creates an empty world with a deterministic RNG, timed by clk.
// The whole world — frame latencies included — is part of clk's
// deterministic timeline, and nodes started on the world inherit the
// clock, so their control planes run on virtual time too. clk must not be
// nil.
func NewWorld(seed int64, clk *clock.Virtual) *World {
	if clk == nil {
		panic("vnet: NewWorld needs a virtual clock")
	}
	return &World{
		nodes:    make(map[NodeID]*Node),
		segments: make(map[string]*Segment),
		clk:      clk,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Clock returns the world's time plane.
func (w *World) Clock() clock.Clock { return w.clk }

// AddSegment registers a segment. Re-adding a name replaces its config but
// keeps attachments.
func (w *World) AddSegment(cfg SegmentConfig) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.segments[cfg.Name]; ok {
		s.cfg = cfg
		return
	}
	w.segments[cfg.Name] = &Segment{cfg: cfg, nodes: make(map[NodeID]*Node)}
}

// SetSegmentLoss changes the loss rate of a segment at run time; this is
// how experiments inject the §2 "network error rate" context change.
func (w *World) SetSegmentLoss(name string, loss float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.segments[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSegment, name)
	}
	s.cfg.Loss = loss
	return nil
}

// SegmentLoss reports a segment's current loss rate. Context retrievers use
// it as a stand-in for the error counters a real NIC driver exposes.
func (w *World) SegmentLoss(name string) (float64, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s, ok := w.segments[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownSegment, name)
	}
	return s.cfg.Loss, nil
}

// Attach implements netio.Network: it creates a node on the listed
// segments and installs the battery model when one is configured. A
// closed world refuses attachments, as every substrate does.
func (w *World) Attach(cfg netio.EndpointConfig) (netio.Endpoint, error) {
	if w.closed.Load() {
		return nil, ErrWorldClosed
	}
	n, err := w.AddNode(cfg.ID, cfg.Kind, cfg.Segments...)
	if err != nil {
		return nil, err
	}
	if cfg.Energy != nil {
		n.SetEnergy(*cfg.Energy)
	}
	return n, nil
}

// AddNode creates a node attached to the listed segments (first one is its
// primary segment, whose characteristics govern its transmissions).
func (w *World) AddNode(id NodeID, kind Kind, segments ...string) (*Node, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.nodes[id]; dup {
		return nil, fmt.Errorf("vnet: node %d already exists", id)
	}
	n := &Node{
		id:    id,
		kind:  kind,
		world: w,
	}
	for _, segName := range segments {
		s, ok := w.segments[segName]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSegment, segName)
		}
		s.nodes[id] = n
		// Build a fresh slice: Multicast iterates the old one lock-free.
		sorted := make([]*Node, 0, len(s.sorted)+1)
		sorted = append(append(sorted, s.sorted...), n)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
		s.sorted = sorted
		n.segments = append(n.segments, s)
	}
	w.nodes[id] = n
	view := make(map[NodeID]*Node, len(w.nodes))
	for k, v := range w.nodes {
		view[k] = v
	}
	w.nodesView.Store(&view)
	return n, nil
}

// lookupNode resolves a destination without taking the topology lock.
func (w *World) lookupNode(id NodeID) (*Node, bool) {
	view := w.nodesView.Load()
	if view == nil {
		return nil, false
	}
	n, ok := (*view)[id]
	return n, ok
}

// Close stops all pending deliveries. It implements netio.Network and
// always returns nil. No handler runs after Close returns: a delayed frame
// fires on the clock goroutine only while every actor is parked, so none is
// running while an actor calls Close, and each one checks the closed flag
// before it delivers.
func (w *World) Close() error {
	w.closed.Store(true)
	return nil
}

// Interface conformance: the world is a netio.Network, nodes are
// netio.Endpoints, and the world doubles as the link-loss source for the
// context retrievers.
var (
	_ netio.Network    = (*World)(nil)
	_ netio.Endpoint   = (*Node)(nil)
	_ netio.LossSource = (*World)(nil)
)

// draw returns a deterministic uniform sample in [0,1).
func (w *World) draw() float64 {
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return w.rng.Float64()
}

// drawJitter returns a uniform duration in [0,j).
func (w *World) drawJitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return time.Duration(w.rng.Int63n(int64(j)))
}

// schedule queues a frame for delivery after d. Zero delay delivers
// synchronously on the caller's goroutine, lending the caller's payload
// straight to the handler; anything else copies into a pooled buffer and
// becomes an entry of the clock's timer heap. The fire runs on the clock
// goroutine at a quiescent point, so same-instant frames deliver in
// registration order, the same order every protocol timer follows.
func (w *World) schedule(d time.Duration, payload []byte, dl delivery) {
	if d <= 0 {
		h, ok := dl.dst.accountRx(dl.class, len(payload), dl.port)
		if ok && h != nil {
			h(dl.src, dl.port, payload)
		}
		return
	}
	dl.pb, dl.size = copyPayload(payload), len(payload)
	w.clk.AfterFunc(d, func() {
		if w.closed.Load() {
			recyclePayload(dl.pb)
			return
		}
		w.deliver(dl)
	})
}

// deliver hands one frame to its destination's handler and recycles the
// frame buffer.
func (w *World) deliver(dl delivery) {
	h, ok := dl.dst.accountRx(dl.class, dl.size, dl.port)
	if ok && h != nil {
		h(dl.src, dl.port, dl.pb.b[:dl.size])
	}
	recyclePayload(dl.pb)
}
