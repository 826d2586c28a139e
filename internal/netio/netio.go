// Package netio defines the network-substrate abstraction the Morpheus
// protocol layers run on. The paper evaluates Morpheus on a real hybrid
// fixed-LAN/wireless-PDA testbed; this reproduction began welded to the
// in-memory simulator (internal/vnet). netio is the seam that separates
// the two concerns: protocol layers (transport, group suite, Mecho,
// Cocaditem, Core) speak to an Endpoint — a port-scoped frame interface
// with unicast and native-multicast sends, handler registration, identity
// and traffic accounting — while substrates implement it:
//
//   - internal/vnet: the deterministic simulator (latency, jitter, loss,
//     energy metering) used by the experiment harness;
//   - internal/netio/loopnet: a zero-configuration in-process loopback for
//     tests;
//   - internal/netio/udpnet: real UDP sockets with port-demultiplexed
//     frames and IP-multicast segments, for live multi-process runs.
//
// A substrate's Network value is the endpoint factory; the conformance
// suite (internal/netio/conformancetest) pins the semantics every backend
// must share.
package netio

import (
	"errors"

	"morpheus/internal/appia"
)

// NodeID aliases the kernel's node identifier.
type NodeID = appia.NodeID

// Kind classifies a device, mirroring the paper's fixed/mobile split.
type Kind int

// Device kinds.
const (
	Fixed Kind = iota + 1
	Mobile
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fixed:
		return "fixed"
	case Mobile:
		return "mobile"
	default:
		return "kind?"
	}
}

// Handler receives a payload delivered to an endpoint port. It is invoked
// on a substrate delivery goroutine; implementations must be quick and
// thread-safe (typically they just post into an appia scheduler mailbox).
// The payload slice is borrowed — the sender's scratch buffer or the
// substrate's receive buffer — and is only valid for the duration of the
// call: handlers must not modify it, and handlers that retain it must copy.
type Handler func(src NodeID, port string, payload []byte)

// Substrate-independent error conditions. Backends wrap these with their
// own prefix (e.g. "vnet: unknown node"), so callers match with errors.Is.
var (
	// ErrClosed reports an operation on a closed endpoint or network.
	ErrClosed = errors.New("closed")
	// ErrUnknownNode reports a send to an identifier the substrate cannot
	// resolve to an attachment point.
	ErrUnknownNode = errors.New("unknown node")
	// ErrUnknownSegment reports a reference to an undeclared segment.
	ErrUnknownSegment = errors.New("unknown segment")
	// ErrNotAttached reports a segment operation by a non-member endpoint.
	ErrNotAttached = errors.New("not attached to segment")
	// ErrNoMulticast reports a native multicast on a segment that does not
	// support one-transmission fan-out.
	ErrNoMulticast = errors.New("segment does not support native multicast")
	// ErrFrameTooLarge reports a Send or Multicast whose payload exceeds
	// MaxPayload, the substrate-independent frame budget. Every backend
	// rejects such payloads at the call site (pinned by the conformance
	// suite) instead of failing later at marshal time — or, worse,
	// accepting on one substrate what another would drop.
	ErrFrameTooLarge = errors.New("payload exceeds frame budget")
)

// MaxPayload is the largest payload Send/Multicast accepts on any
// substrate: the 64 KiB UDP datagram ceiling minus generous room for the
// wire header (source, port, class, container framing). Simulated
// substrates enforce the same budget so a protocol stack that works on
// vnet cannot silently exceed what the live wire can carry.
const MaxPayload = 63 << 10

// Endpoint is one node's attachment to a network substrate. All methods
// are safe for concurrent use.
//
// Ports isolate channels and configuration epochs: traffic addressed to an
// unregistered port is silently dropped, which is exactly what happens to
// stale pre-reconfiguration frames. Transmission accounting happens here,
// at the lowest level, so no protocol layer can forget to count its
// traffic — the quantity the paper's Figure 3 measures.
type Endpoint interface {
	// ID returns the node identifier.
	ID() NodeID
	// Kind returns the device class.
	Kind() Kind
	// Handle registers (or, with a nil handler, removes) the receiver for
	// a port.
	Handle(port string, h Handler)
	// Send transmits payload point-to-point to dst's port, accounted under
	// class. Sends to self are delivered locally without accounting (they
	// never touch the NIC). Loss is silent: a nil error only means the
	// frame was handed to the substrate.
	Send(dst NodeID, port, class string, payload []byte) error
	// Multicast performs a native multicast on the named segment: one
	// accounted transmission, delivered to every other attached endpoint.
	Multicast(segment, port, class string, payload []byte) error
	// Flush hands every frame accepted so far to the substrate. It never
	// waits on another goroutine's transmission: a backend that batches
	// (udpnet's coalescer) seals what is open and either transmits it or
	// leaves it to the drainer already at work. Backends that deliver
	// eagerly implement it as a no-op. Protocol stacks call it when their
	// scheduler runs out of work, so a lone frame does not wait for a
	// delay-bound timer.
	Flush()
	// Counters snapshots the endpoint's traffic, keyed by class.
	Counters() Counters
	// ResetCounters zeroes the traffic counters (between experiment
	// phases).
	ResetCounters()
	// Close detaches the endpoint: reception stops and subsequent sends
	// fail. Close is idempotent and safe to race with sends.
	Close() error
}

// EnergyConfig is the battery model of a mobile node, loosely following
// the session-based broadcast energy models the paper cites ([20]): a
// fixed per-message cost plus a per-byte cost, with reception cheaper than
// transmission. Substrates without an energy model ignore it.
type EnergyConfig struct {
	CapacityJ  float64
	TxPerMsgJ  float64
	TxPerByteJ float64
	RxPerMsgJ  float64
	RxPerByteJ float64
}

// EndpointConfig describes one endpoint attachment.
type EndpointConfig struct {
	// ID is the node identifier; it must be unique within the network.
	ID NodeID
	// Kind is the device class (Fixed or Mobile).
	Kind Kind
	// Segments lists the segments to attach to; the first is the primary
	// segment, whose characteristics govern transmissions on substrates
	// that model them.
	Segments []string
	// Energy, when non-nil, installs a battery model on substrates that
	// meter energy.
	Energy *EnergyConfig
}

// Network creates endpoints on one substrate instance.
type Network interface {
	// Attach creates the endpoint described by cfg.
	Attach(cfg EndpointConfig) (Endpoint, error)
	// Close tears the substrate down, closing every endpoint.
	Close() error
}

// BatteryMeter is implemented by endpoints that meter (or measure) their
// energy budget.
type BatteryMeter interface {
	// BatteryFraction returns the remaining charge as a fraction of
	// capacity.
	BatteryFraction() float64
}

// BatteryFraction reads an endpoint's remaining battery fraction, or 1 for
// endpoints that are not metered (mains-powered, or a substrate without an
// energy model).
func BatteryFraction(ep Endpoint) float64 {
	if m, ok := ep.(BatteryMeter); ok {
		return m.BatteryFraction()
	}
	return 1
}

// LossSource reports an observed loss probability for a named segment —
// the stand-in for the error counters a real NIC driver exposes, feeding
// the link-loss context retriever.
type LossSource interface {
	SegmentLoss(segment string) (float64, error)
}

// Logf is the diagnostic logger shared by the substrate and protocol
// packages. Library code never writes to the process-global logger: a nil
// Logf discards.
type Logf func(format string, args ...any)

// Or returns l, or a no-op logger when l is nil, so callers can invoke it
// unconditionally.
func (l Logf) Or() Logf {
	if l == nil {
		return func(string, ...any) {}
	}
	return l
}
