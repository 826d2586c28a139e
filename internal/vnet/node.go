package vnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// Node is one simulated device; it implements netio.Endpoint.
//
// The accounting hot path is lock-free: liveness flags are atomics and the
// per-class counters are atomic arrays indexed by the Class enum (the
// shared netio.CounterSet). The energy model (only consulted when a
// battery is installed) and the port handler table have their own narrow
// locks.
type Node struct {
	id    NodeID
	kind  Kind
	world *World

	// segments is set once by AddNode, before the node is visible to any
	// other goroutine, and never mutated afterwards.
	segments []*Segment // first is the primary segment

	down    atomic.Bool
	closed  atomic.Bool // set by Close; sends then fail with netio.ErrClosed
	metered atomic.Bool // true once SetEnergy installs a battery model

	counters netio.CounterSet
	ports    netio.PortMux

	mu      sync.Mutex    // battery state
	energy  *EnergyConfig // nil: unmetered
	chargeJ float64       // remaining battery
}

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// World returns the world this node belongs to.
func (n *Node) World() *World { return n.world }

// Clock returns the world's time plane. The morpheus facade uses it to
// default a node's clock to its substrate's, so nodes attached to a
// virtual-clock world virtualize their control planes automatically.
func (n *Node) Clock() clock.Clock { return n.world.clk }

// Kind returns the device kind.
func (n *Node) Kind() Kind { return n.kind }

// SetEnergy installs a battery model (typically only for mobile nodes).
func (n *Node) SetEnergy(cfg EnergyConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := cfg
	n.energy = &c
	n.chargeJ = cfg.CapacityJ
	n.metered.Store(true)
}

// BatteryJ returns the remaining charge in joules; +Inf semantics are
// represented by (level, false) when no battery model is installed.
func (n *Node) BatteryJ() (joules float64, metered bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.energy == nil {
		return 0, false
	}
	return n.chargeJ, true
}

// BatteryFraction returns remaining charge as a fraction of capacity, or 1
// if unmetered.
func (n *Node) BatteryFraction() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.energy == nil || n.energy.CapacityJ <= 0 {
		return 1
	}
	f := n.chargeJ / n.energy.CapacityJ
	if f < 0 {
		return 0
	}
	return f
}

// Alive reports whether the node is up and, if metered, has charge left.
func (n *Node) Alive() bool {
	if n.down.Load() {
		return false
	}
	if n.metered.Load() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.energy != nil && n.chargeJ <= 0 {
			return false
		}
	}
	return true
}

// SetDown crashes (true) or revives (false) the node. A crashed node
// neither sends nor receives; the failure detectors above will evict it.
func (n *Node) SetDown(down bool) {
	n.down.Store(down)
}

// Close implements netio.Endpoint: it takes the node down for good (it
// stops sending and receiving, as an unplugged device would). The node
// stays in the world's topology so its traffic counters remain readable.
// Close is idempotent and safe to race with sends, which subsequently
// fail with an error matching netio.ErrClosed, as on every substrate.
func (n *Node) Close() error {
	n.closed.Store(true)
	n.down.Store(true)
	return nil
}

// errIfClosed returns the substrate-uniform post-Close send error.
func (n *Node) errIfClosed() error {
	if n.closed.Load() {
		return fmt.Errorf("vnet: node %d %w", n.id, netio.ErrClosed)
	}
	return nil
}

// Handle registers (or, with a nil handler, removes) the receiver for a
// port. Ports isolate channels and configuration epochs: traffic addressed
// to an unregistered port is silently dropped, which is exactly what
// happens to stale pre-reconfiguration packets.
func (n *Node) Handle(port string, h Handler) {
	n.ports.Set(port, h)
}

// Counters returns a snapshot of the node's traffic counters. Classes other
// than "data" and "control" are aggregated under "other". The counters are
// independent atomics, so a snapshot (or reset) taken while traffic is in
// flight can be off by the frame being accounted; take them at phase
// boundaries, as the experiments do, for exact values.
func (n *Node) Counters() Counters {
	return n.counters.Snapshot()
}

// ResetCounters zeroes the traffic counters (between experiment phases).
func (n *Node) ResetCounters() {
	n.counters.Reset()
}

// Flush implements netio.Endpoint: a no-op, since the simulator hands
// every frame to its receiver or to the clock's timer heap at Send time.
func (n *Node) Flush() {}

// primary returns the node's primary segment, or nil if detached. segments
// is immutable after construction, so no lock is needed.
func (n *Node) primary() *Segment {
	if len(n.segments) == 0 {
		return nil
	}
	return n.segments[0]
}

// drainBattery charges the battery for one frame if the node is metered;
// it reports false when the battery was already exhausted. With no battery
// installed it is a single atomic load.
func (n *Node) drainBattery(tx bool, size int, wireless bool) bool {
	if !n.metered.Load() {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.energy == nil {
		return true
	}
	if n.chargeJ <= 0 {
		return false
	}
	if wireless {
		if tx {
			n.chargeJ -= n.energy.TxPerMsgJ + n.energy.TxPerByteJ*float64(size)
		} else {
			n.chargeJ -= n.energy.RxPerMsgJ + n.energy.RxPerByteJ*float64(size)
		}
	}
	return true
}

// accountTx counts one transmission and drains the battery; it reports
// whether the node was able to transmit.
func (n *Node) accountTx(class string, size int, wireless bool) bool {
	if n.down.Load() {
		return false
	}
	if !n.drainBattery(true, size, wireless) {
		return false
	}
	n.counters.AddTx(class, size)
	// One simulated frame is one datagram and one nominal syscall, so the
	// wire-level counters stay comparable with the batching substrate.
	n.counters.AddTxDatagram(size)
	n.counters.AddTxSyscall()
	return true
}

// accountRx counts one reception and drains the battery; it reports whether
// the node accepted the frame and returns the handler for the port.
func (n *Node) accountRx(class string, size int, port string) (Handler, bool) {
	if n.down.Load() {
		return nil, false
	}
	wireless := len(n.segments) > 0 && n.segments[0].cfg.Wireless
	if !n.drainBattery(false, size, wireless) {
		return nil, false
	}
	n.counters.AddRx(class, size)
	n.counters.AddRxDatagram(size)
	n.counters.AddRxSyscall()
	return n.ports.Get(port)
}

// Send transmits payload point-to-point to dst's port. The transmission is
// counted (and battery drained) even if the frame is subsequently lost,
// which matches how a radio behaves. Loss and latency combine the sender's
// and receiver's primary segments.
func (n *Node) Send(dst NodeID, port, class string, payload []byte) error {
	w := n.world
	if w.closed.Load() {
		return ErrWorldClosed
	}
	if err := n.errIfClosed(); err != nil {
		return err
	}
	if len(payload) > netio.MaxPayload {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), netio.MaxPayload)
	}
	dn, ok := w.lookupNode(dst)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}

	if dst == n.id {
		// Loopback: stays in the host, never touches the NIC, so it is
		// neither counted nor energy-metered.
		if !n.Alive() {
			return fmt.Errorf("node %d: %w", n.id, ErrNodeDown)
		}
		n.deliverLoopback(dn, port, payload)
		return nil
	}
	sseg := n.primary()
	if sseg == nil {
		return fmt.Errorf("%w: node %d", ErrNotAttached, n.id)
	}
	if !n.accountTx(class, len(payload), sseg.cfg.Wireless) {
		return fmt.Errorf("node %d: %w", n.id, ErrNodeDown)
	}

	fs := w.faults.Load()
	if fs != nil && fs.cut(n.id, dst) {
		return nil // partitioned: transmitted into a medium that cannot reach dst
	}
	dseg := dn.primary()
	loss := sseg.cfg.Loss
	lat := sseg.cfg.Latency + w.drawJitter(sseg.cfg.Jitter)
	if dseg != nil && dseg != sseg {
		loss = 1 - (1-loss)*(1-dseg.cfg.Loss)
		lat += dseg.cfg.Latency + w.drawJitter(dseg.cfg.Jitter)
	}
	if fs != nil {
		loss, lat = fs.override(n.id, dst, loss, lat)
	}
	if loss > 0 && w.draw() < loss {
		return nil // lost in transit; sender cannot tell
	}
	n.deliverCopy(n.id, dn, port, class, payload, lat)
	return nil
}

// Multicast performs a native multicast on the named segment: one counted
// transmission, delivered to every other attached node (subject to
// per-receiver loss). Returns ErrNoMulticast if the segment does not
// support it.
func (n *Node) Multicast(segment, port, class string, payload []byte) error {
	w := n.world
	if w.closed.Load() {
		return ErrWorldClosed
	}
	if err := n.errIfClosed(); err != nil {
		return err
	}
	if len(payload) > netio.MaxPayload {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), netio.MaxPayload)
	}
	w.mu.RLock()
	seg, ok := w.segments[segment]
	if !ok {
		w.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrUnknownSegment, segment)
	}
	if _, attached := seg.nodes[n.id]; !attached {
		w.mu.RUnlock()
		return fmt.Errorf("%w: node %d not on %q", ErrNotAttached, n.id, segment)
	}
	if !seg.cfg.NativeMulticast {
		w.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrNoMulticast, segment)
	}
	receivers := seg.sorted // immutable snapshot: AddNode replaces, never mutates
	cfg := seg.cfg
	w.mu.RUnlock()

	if !n.accountTx(class, len(payload), cfg.Wireless) {
		return fmt.Errorf("node %d: %w", n.id, ErrNodeDown)
	}
	fs := w.faults.Load()
	for _, rn := range receivers {
		if rn.id == n.id {
			continue // one's own multicast is not received
		}
		loss, base := cfg.Loss, cfg.Latency
		if fs != nil {
			if fs.cut(n.id, rn.id) {
				continue // partitioned receiver: the frame never reaches it
			}
			loss, base = fs.override(n.id, rn.id, loss, base)
		}
		if loss > 0 && w.draw() < loss {
			continue
		}
		lat := base + w.drawJitter(cfg.Jitter)
		n.deliverCopy(n.id, rn, port, class, payload, lat)
	}
	return nil
}

// deliverLoopback lends the payload straight to the local handler,
// bypassing accounting (the Handler contract forbids retention).
func (n *Node) deliverLoopback(dst *Node, port string, payload []byte) {
	h, ok := dst.ports.Get(port)
	if !ok || h == nil {
		return
	}
	h(n.id, port, payload)
}

// deliverCopy schedules delivery of payload after the given latency. Zero
// latency lends the payload synchronously on this goroutine; otherwise the
// world copies it into a pooled buffer for the clock's timer heap.
func (n *Node) deliverCopy(src NodeID, dst *Node, port, class string, payload []byte, after time.Duration) {
	n.world.schedule(after, payload, delivery{
		src:   src,
		dst:   dst,
		port:  port,
		class: class,
	})
}
