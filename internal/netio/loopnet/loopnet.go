// Package loopnet is the zero-configuration in-process netio backend: a
// loopback network whose deliveries happen synchronously on the sender's
// goroutine. It models nothing — no latency, no loss, no energy — which
// makes it the fastest substrate for protocol tests and the reference
// point the conformance suite calibrates against.
//
// Segments are implicit: they spring into existence on first reference and
// every segment supports native multicast (fan-out in ascending ID order).
package loopnet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"morpheus/internal/netio"
)

// Network is an in-process loopback substrate.
type Network struct {
	mu       sync.RWMutex
	nodes    map[netio.NodeID]*Endpoint
	segments map[string]*segment
	closed   bool
}

// segment is one implicit broadcast domain.
type segment struct {
	// members is re-sorted on every attach; multicast fan-out iterates it
	// in ascending ID order, mirroring vnet's reproducible receiver order.
	members []*Endpoint
}

// New returns an empty loopback network.
func New() *Network {
	return &Network{
		nodes:    make(map[netio.NodeID]*Endpoint),
		segments: make(map[string]*segment),
	}
}

// Attach implements netio.Network.
func (nw *Network) Attach(cfg netio.EndpointConfig) (netio.Endpoint, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.closed {
		return nil, fmt.Errorf("loopnet: network %w", netio.ErrClosed)
	}
	if _, dup := nw.nodes[cfg.ID]; dup {
		return nil, fmt.Errorf("loopnet: node %d already attached", cfg.ID)
	}
	ep := &Endpoint{
		net:      nw,
		id:       cfg.ID,
		kind:     cfg.Kind,
		segments: append([]string(nil), cfg.Segments...),
	}
	for _, name := range cfg.Segments {
		s := nw.segments[name]
		if s == nil {
			s = &segment{}
			nw.segments[name] = s
		}
		// Build a fresh slice: Multicast iterates snapshots lock-free.
		members := make([]*Endpoint, 0, len(s.members)+1)
		members = append(append(members, s.members...), ep)
		sort.Slice(members, func(i, j int) bool { return members[i].id < members[j].id })
		s.members = members
	}
	nw.nodes[cfg.ID] = ep
	return ep, nil
}

// Close implements netio.Network: it closes every endpoint.
func (nw *Network) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	eps := make([]*Endpoint, 0, len(nw.nodes))
	for _, ep := range nw.nodes {
		eps = append(eps, ep)
	}
	nw.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// detach removes a closed endpoint from the topology.
func (nw *Network) detach(ep *Endpoint) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.nodes, ep.id)
	for _, name := range ep.segments {
		s := nw.segments[name]
		if s == nil {
			continue
		}
		members := make([]*Endpoint, 0, len(s.members))
		for _, m := range s.members {
			if m != ep {
				members = append(members, m)
			}
		}
		s.members = members
	}
}

// Endpoint is one loopback attachment; it implements netio.Endpoint.
type Endpoint struct {
	net      *Network
	id       netio.NodeID
	kind     netio.Kind
	segments []string

	closed   atomic.Bool
	ports    netio.PortMux
	counters netio.CounterSet
}

var _ netio.Endpoint = (*Endpoint)(nil)

// ID implements netio.Endpoint.
func (e *Endpoint) ID() netio.NodeID { return e.id }

// Kind implements netio.Endpoint.
func (e *Endpoint) Kind() netio.Kind { return e.kind }

// Handle implements netio.Endpoint.
func (e *Endpoint) Handle(port string, h netio.Handler) { e.ports.Set(port, h) }

// Counters implements netio.Endpoint.
func (e *Endpoint) Counters() netio.Counters { return e.counters.Snapshot() }

// ResetCounters implements netio.Endpoint.
func (e *Endpoint) ResetCounters() { e.counters.Reset() }

// Flush implements netio.Endpoint: a no-op, since Send delivers
// synchronously.
func (e *Endpoint) Flush() {}

// Close implements netio.Endpoint.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.net.detach(e)
	return nil
}

// Send implements netio.Endpoint: synchronous delivery on this goroutine.
func (e *Endpoint) Send(dst netio.NodeID, port, class string, payload []byte) error {
	if e.closed.Load() {
		return fmt.Errorf("loopnet: endpoint %d %w", e.id, netio.ErrClosed)
	}
	if len(payload) > netio.MaxPayload {
		return fmt.Errorf("loopnet: %w: %d > %d bytes", netio.ErrFrameTooLarge, len(payload), netio.MaxPayload)
	}
	if dst == e.id {
		// Loopback to self: delivered but never counted, like vnet.
		e.deliverLocal(e.id, port, payload)
		return nil
	}
	e.net.mu.RLock()
	dn := e.net.nodes[dst]
	e.net.mu.RUnlock()
	if dn == nil {
		return fmt.Errorf("loopnet: %w: %d", netio.ErrUnknownNode, dst)
	}
	e.counters.AddTx(class, len(payload))
	e.counters.AddTxDatagram(len(payload))
	e.counters.AddTxSyscall()
	dn.receive(e.id, port, class, payload)
	return nil
}

// Multicast implements netio.Endpoint: one accounted transmission fanned
// out to every other member of the segment, in ascending ID order.
func (e *Endpoint) Multicast(segName, port, class string, payload []byte) error {
	if e.closed.Load() {
		return fmt.Errorf("loopnet: endpoint %d %w", e.id, netio.ErrClosed)
	}
	if len(payload) > netio.MaxPayload {
		return fmt.Errorf("loopnet: %w: %d > %d bytes", netio.ErrFrameTooLarge, len(payload), netio.MaxPayload)
	}
	e.net.mu.RLock()
	s := e.net.segments[segName]
	var receivers []*Endpoint
	attached := false
	if s != nil {
		receivers = s.members // re-sliced on detach, never mutated in place
		for _, m := range receivers {
			if m == e {
				attached = true
				break
			}
		}
	}
	e.net.mu.RUnlock()
	if s == nil {
		return fmt.Errorf("loopnet: %w: %q", netio.ErrUnknownSegment, segName)
	}
	if !attached {
		return fmt.Errorf("loopnet: node %d %w %q", e.id, netio.ErrNotAttached, segName)
	}
	e.counters.AddTx(class, len(payload))
	e.counters.AddTxDatagram(len(payload))
	e.counters.AddTxSyscall()
	for _, m := range receivers {
		if m == e {
			continue // one's own multicast is not received
		}
		m.receive(e.id, port, class, payload)
	}
	return nil
}

// receive accounts and delivers one frame.
func (e *Endpoint) receive(src netio.NodeID, port, class string, payload []byte) {
	if e.closed.Load() {
		return
	}
	e.counters.AddRx(class, len(payload))
	e.counters.AddRxDatagram(len(payload))
	e.counters.AddRxSyscall()
	e.deliverLocal(src, port, payload)
}

// deliverLocal hands the payload to the port handler, if any.
func (e *Endpoint) deliverLocal(src netio.NodeID, port string, payload []byte) {
	if h, ok := e.ports.Get(port); ok && h != nil {
		h(src, port, payload)
	}
}
