// Package udpnet is the real-socket netio backend: each endpoint owns one
// UDP socket, Morpheus ports are demultiplexed from a small frame header,
// and segments with a configured group address do native multicast through
// IP multicast. It is the substrate cmd/morpheus-node and examples/live
// run on — three OS processes on localhost forming a live Morpheus group.
//
// Addressing is static: the configuration maps every node identifier to a
// UDP listen address, as a deployment descriptor would. A peer registered
// with port 0 has its actual bound address published back into the
// network's table on Attach, which is what lets in-process tests run on
// ephemeral ports.
//
// The wire plane batches: frames bound for the same destination (peer or
// multicast group) are coalesced into container datagrams under an MTU
// budget (Config.WireMTU). An open datagram is flushed, in order of
// precedence:
//
//  1. by size, when the next frame would overflow the MTU;
//  2. at scheduler idle, when the protocol stack that produced it runs out
//     of work and calls Flush just before its scheduler parks (morpheus
//     installs that hook on every scheduler of a node);
//  3. by the delay bound (Config.WireFlushDelay), for a stack too busy to
//     park and for senders outside any scheduler;
//  4. by an explicit Flush, or by Close.
//
// The idle flush is what keeps a lone frame off the timer: a wall-clock
// AfterFunc of 200 µs fires after about 1.1 ms once every P is idle,
// because the Go netpoller then sleeps in whole milliseconds. Sealed
// datagrams are drained with vectored sendmmsg/recvmmsg syscalls where the
// platform has them (see wire.go and the mmsg_* files). Two wire formats
// coexist:
//
//	v1 single frame (legacy, and the oversize bypass):
//	  magic 'M' | version 1 | src NodeID (int32, big endian) |
//	  uvarint len + port | uvarint len + class | payload
//
//	v2 container (the coalesced path):
//	  magic 'M' | version 2 | src NodeID (int32, big endian) |
//	  count (uint16, big endian) | count × { uvarint body len |
//	  uvarint len + port | uvarint len + class | payload }
//
// Frames whose header does not parse — or whose source is the receiving
// endpoint itself, which is how multicast loopback copies of one's own
// transmissions are suppressed — are dropped.
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// Frame header constants.
const (
	frameMagic       = 'M'
	frameVersion     = 1
	containerVersion = 2
	// containerHdrLen is magic + version + src (4) + count (2).
	containerHdrLen = 8
	// maxFrame bounds a datagram: 64 KiB covers the largest UDP payload.
	maxFrame = 64 << 10
)

// Wire-plane defaults.
const (
	// DefaultWireMTU is the datagram payload budget coalescing packs
	// under: conservatively below the common 1500-byte Ethernet MTU so a
	// container datagram never fragments on a LAN.
	DefaultWireMTU = 1400
	// DefaultWireFlushDelay bounds how long a coalesced frame may wait
	// for companions before the clock flushes it, when no idle or explicit
	// Flush comes first.
	DefaultWireFlushDelay = 200 * time.Microsecond
)

// Config describes a UDP substrate deployment.
type Config struct {
	// Peers maps every node identifier to its unicast UDP listen address
	// ("127.0.0.1:9001"). Port 0 binds an ephemeral port and publishes it
	// (in-process use only: other processes cannot observe the rebind).
	Peers map[netio.NodeID]string
	// Groups maps segment names to IP multicast group addresses
	// ("239.77.7.1:9700"). Segments without an entry are unicast-only:
	// Multicast on them fails with netio.ErrNoMulticast.
	Groups map[string]string
	// WireMTU is the coalescing budget: frames bound for one destination
	// are packed into container datagrams of at most this many bytes.
	// 0 means DefaultWireMTU; negative disables coalescing entirely and
	// restores the one-frame-per-datagram, one-syscall-per-frame legacy
	// path (the benchmark baseline). Positive values below 128 are
	// rejected — no frame would fit.
	WireMTU int
	// WireFlushDelay bounds the latency coalescing may add when nothing
	// else flushes: the first frame into an empty coalescer arms a timer,
	// and whatever has packed by the time it fires is flushed. A stack
	// that goes idle flushes long before (Endpoint.Flush from its
	// scheduler's idle hook), so the bound only governs a scheduler that
	// never parks under sustained load and senders outside any scheduler.
	// Note that the wall clock rounds a sub-millisecond timer up to about
	// 1 ms on an otherwise idle process. 0 means DefaultWireFlushDelay;
	// negative flushes every Send immediately (no added latency, packing
	// only across the frames already queued by concurrent senders).
	WireFlushDelay time.Duration
	// Clock arms the flush-delay timer. Nil means wall clock; tests drive
	// a virtual clock through it so delay-bound flushes are deterministic.
	Clock clock.Clock
	// Logf receives diagnostics (undecodable frames, read and batched
	// write errors); nil discards them.
	Logf netio.Logf
}

// Network is a UDP substrate instance; it implements netio.Network.
type Network struct {
	logf  netio.Logf
	mtu   int
	delay time.Duration
	clk   clock.Clock

	// basePeers and groupAddrs are the resolved configuration, immutable
	// after New.
	basePeers  map[netio.NodeID]*net.UDPAddr
	groupAddrs map[string]*net.UDPAddr

	mu     sync.RWMutex
	peers  map[netio.NodeID]*net.UDPAddr // live directory (port-0 rebinds published here)
	eps    map[netio.NodeID]*Endpoint
	closed bool
}

// New validates the configuration and resolves the peer directory and
// group addresses once.
func New(cfg Config) (*Network, error) {
	mtu := cfg.WireMTU
	switch {
	case mtu == 0:
		mtu = DefaultWireMTU
	case mtu < 0:
		mtu = 0 // coalescing disabled
	case mtu < 128:
		return nil, fmt.Errorf("udpnet: WireMTU %d below the 128-byte minimum", cfg.WireMTU)
	case mtu > maxFrame:
		return nil, fmt.Errorf("udpnet: WireMTU %d exceeds the %d-byte datagram ceiling", cfg.WireMTU, maxFrame)
	}
	delay := cfg.WireFlushDelay
	if delay == 0 {
		delay = DefaultWireFlushDelay
	}
	nw := &Network{
		logf:       cfg.Logf.Or(),
		mtu:        mtu,
		delay:      delay,
		clk:        clock.Or(cfg.Clock),
		basePeers:  make(map[netio.NodeID]*net.UDPAddr, len(cfg.Peers)),
		groupAddrs: make(map[string]*net.UDPAddr, len(cfg.Groups)),
		peers:      make(map[netio.NodeID]*net.UDPAddr, len(cfg.Peers)),
		eps:        make(map[netio.NodeID]*Endpoint),
	}
	for id, addr := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("udpnet: peer %d address %q: %w", id, addr, err)
		}
		nw.basePeers[id] = ua
		nw.peers[id] = ua
	}
	for seg, addr := range cfg.Groups {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("udpnet: segment %q group %q: %w", seg, addr, err)
		}
		if !ua.IP.IsMulticast() {
			return nil, fmt.Errorf("udpnet: segment %q group %q is not a multicast address", seg, addr)
		}
		nw.groupAddrs[seg] = ua
	}
	return nw, nil
}

// peer resolves a node's unicast address. A port-0 entry means the peer
// was configured ephemeral and has not attached yet: it is unreachable,
// not a destination.
func (nw *Network) peer(id netio.NodeID) *net.UDPAddr {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	addr := nw.peers[id]
	if addr == nil || addr.Port == 0 {
		return nil
	}
	return addr
}

// Attach implements netio.Network: it binds the endpoint's unicast socket,
// joins the multicast group of every attached segment that has one, and
// starts the receive loops. The whole operation runs under the network
// lock — socket setup is a handful of fast syscalls, and holding the lock
// closes the window where a duplicate Attach or a concurrent Network.Close
// could race the registration.
func (nw *Network) Attach(cfg netio.EndpointConfig) (netio.Endpoint, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.closed {
		return nil, fmt.Errorf("udpnet: network %w", netio.ErrClosed)
	}
	if _, dup := nw.eps[cfg.ID]; dup {
		return nil, fmt.Errorf("udpnet: node %d already attached", cfg.ID)
	}
	laddr := nw.basePeers[cfg.ID]
	if laddr == nil {
		return nil, fmt.Errorf("udpnet: %w: %d has no configured address", netio.ErrUnknownNode, cfg.ID)
	}

	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: node %d listen %v: %w", cfg.ID, laddr, err)
	}
	// Generous socket buffers: a vectored drain can put dozens of
	// datagrams on the wire between two receiver wakeups, and on loopback
	// the default buffers overrun long before the receiver is actually
	// slow. Best effort — some environments cap the values.
	_ = conn.SetReadBuffer(1 << 21)
	_ = conn.SetWriteBuffer(1 << 21)
	ep := &Endpoint{
		net:      nw,
		id:       cfg.ID,
		kind:     cfg.Kind,
		segments: append([]string(nil), cfg.Segments...),
		conn:     conn,
		groups:   make(map[string]*net.UDPAddr, len(cfg.Segments)),
		logf:     nw.logf,
	}
	// Join segment multicast groups. Each joined group gets its own
	// listening socket (ListenMulticastUDP sets SO_REUSEADDR, so several
	// in-process endpoints can share one group).
	for _, seg := range cfg.Segments {
		gaddr, ok := nw.groupAddrs[seg]
		if !ok {
			continue // unicast-only segment
		}
		gconn, err := net.ListenMulticastUDP("udp4", nil, gaddr)
		if err != nil {
			_ = ep.closeSockets()
			return nil, fmt.Errorf("udpnet: node %d join %q (%v): %w", cfg.ID, seg, gaddr, err)
		}
		_ = gconn.SetReadBuffer(1 << 21)
		ep.groups[seg] = gaddr
		ep.gconns = append(ep.gconns, gconn)
	}
	// Group sends leave through a wildcard-bound socket: a socket bound to
	// a concrete unicast address (127.0.0.1 in the localhost demos) pins
	// multicast egress to that address's interface, which has no group
	// members; the wildcard socket lets the kernel route and loop the
	// datagram back to local joiners.
	if len(ep.groups) > 0 {
		mconn, err := net.ListenUDP("udp4", &net.UDPAddr{})
		if err != nil {
			_ = ep.closeSockets()
			return nil, fmt.Errorf("udpnet: node %d multicast send socket: %w", cfg.ID, err)
		}
		_ = mconn.SetWriteBuffer(1 << 21)
		ep.mconn = mconn
	}
	if nw.mtu > 0 {
		ep.wire = newCoalescer(ep, nw.mtu, nw.delay, nw.clk)
	}

	nw.eps[cfg.ID] = ep
	// Publish the actual bound address so ephemeral-port peers (":0") are
	// reachable from this process.
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		nw.peers[cfg.ID] = la
	}

	// The receive loops are registered with the WaitGroup before the lock
	// drops, so a Network.Close that observes this endpoint always waits
	// for them.
	ep.wg.Add(1 + len(ep.gconns))
	go ep.readLoop(ep.conn)
	for _, gc := range ep.gconns {
		go ep.readLoop(gc)
	}
	return ep, nil
}

// Close implements netio.Network: it closes every endpoint and waits for
// their receive loops to drain.
func (nw *Network) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	eps := make([]*Endpoint, 0, len(nw.eps))
	for _, ep := range nw.eps {
		eps = append(eps, ep)
	}
	nw.mu.Unlock()
	var firstErr error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// detach removes a closed endpoint and restores the configured peer
// address, so an ephemeral-port peer can attach again.
func (nw *Network) detach(ep *Endpoint) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.eps[ep.id] == ep {
		delete(nw.eps, ep.id)
		nw.peers[ep.id] = nw.basePeers[ep.id]
	}
}

// Endpoint is one UDP socket attachment; it implements netio.Endpoint.
type Endpoint struct {
	net      *Network
	id       netio.NodeID
	kind     netio.Kind
	segments []string

	conn   *net.UDPConn            // unicast socket (also the unicast send socket)
	mconn  *net.UDPConn            // multicast send socket (wildcard-bound); nil without groups
	groups map[string]*net.UDPAddr // segment -> group address
	gconns []*net.UDPConn          // joined group listening sockets

	// wire is the coalescing send plane; nil when WireMTU is negative
	// (the legacy one-frame-per-datagram path).
	wire *coalescer
	// batch is the platform send state (cached raw connections, scratch
	// iovec arrays); only the single active drainer touches it.
	batch batchState

	closed   atomic.Bool
	wg       sync.WaitGroup
	ports    netio.PortMux
	counters netio.CounterSet
	logf     netio.Logf
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

// LocalAddr returns the bound unicast address (useful with port-0 peers).
func (e *Endpoint) LocalAddr() *net.UDPAddr {
	la, _ := e.conn.LocalAddr().(*net.UDPAddr)
	return la
}

// Flush implements netio.Endpoint: every coalesced frame still waiting
// for a companion is sealed and either transmitted on the caller's
// goroutine or, when another goroutine is already draining, left in the
// sealed FIFO that drainer sweeps next. Flush never waits on another
// goroutine's transmission, so a scheduler can call it on every park
// without stalling behind a busy wire. No-op on an unbatched endpoint.
func (e *Endpoint) Flush() {
	if e.wire != nil {
		e.wire.Flush()
	}
}

// Close implements netio.Endpoint: graceful shutdown — pending coalesced
// frames flush, the sockets close, the receive loops drain, and only then
// does Close return.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	if e.wire != nil {
		e.wire.close()
	}
	err := e.closeSockets()
	e.wg.Wait()
	e.net.detach(e)
	return err
}

// closeSockets tears the sockets down (also the Attach failure path, when
// the receive loops never started).
func (e *Endpoint) closeSockets() error {
	err := e.conn.Close()
	if e.mconn != nil {
		if cerr := e.mconn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, gc := range e.gconns {
		if cerr := gc.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// frame pool: marshal and container buffers shared across endpoints.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// appendFrameBody appends the port/class/payload body shared by the v1
// frame format and the v2 container entries.
func appendFrameBody(b []byte, port, class string, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(port)))
	b = append(b, port...)
	b = binary.AppendUvarint(b, uint64(len(class)))
	b = append(b, class...)
	b = append(b, payload...)
	return b
}

// frameBodyLen sizes appendFrameBody's output.
func frameBodyLen(port, class string, payload []byte) int {
	return uvarintLen(uint64(len(port))) + len(port) +
		uvarintLen(uint64(len(class))) + len(class) + len(payload)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// marshalFrame encodes a v1 single-frame datagram into a pooled buffer.
func marshalFrame(src netio.NodeID, port, class string, payload []byte) (*[]byte, error) {
	need := 2 + 4 + 2*binary.MaxVarintLen64 + len(port) + len(class) + len(payload)
	if need > maxFrame {
		return nil, fmt.Errorf("udpnet: frame of %d bytes exceeds %d: %w", need, maxFrame, netio.ErrFrameTooLarge)
	}
	bp := framePool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, frameMagic, frameVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	b = appendFrameBody(b, port, class, payload)
	*bp = b
	return bp, nil
}

// errBadFrame reports an undecodable datagram.
var errBadFrame = errors.New("udpnet: undecodable frame")

// parseBody decodes one port/class/payload body in place; port, class and
// payload alias b, so nothing is allocated. Only the shortest encoding of
// each length prefix is accepted — the one appendFrameBody writes — so a
// body that decodes re-encodes to the same bytes.
func parseBody(b []byte) (port, class, payload []byte, err error) {
	take := func() ([]byte, bool) {
		n, w := binary.Uvarint(b)
		if w <= 0 || w != uvarintLen(n) || n > uint64(len(b)-w) {
			return nil, false
		}
		s := b[w : w+int(n)]
		b = b[w+int(n):]
		return s, true
	}
	p, ok := take()
	if !ok {
		return nil, nil, nil, errBadFrame
	}
	c, ok := take()
	if !ok {
		return nil, nil, nil, errBadFrame
	}
	return p, c, b, nil
}

// appendContainerHeader starts a v2 container datagram from src. Its count
// field is zero until setContainerCount patches it at seal time.
func appendContainerHeader(b []byte, src netio.NodeID) []byte {
	b = append(b, frameMagic, containerVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	return append(b, 0, 0)
}

// appendContainerEntry appends one frame to a container: the body's
// length as a uvarint, then the body.
func appendContainerEntry(b []byte, port, class string, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(frameBodyLen(port, class, payload)))
	return appendFrameBody(b, port, class, payload)
}

// setContainerCount patches the frame count into a container's header.
func setContainerCount(b []byte, frames int) {
	binary.BigEndian.PutUint16(b[6:8], uint16(frames))
}

// parseContainer validates a v2 container datagram and returns its sender
// and its entries, the bytes after the header, for nextEntry to walk. A
// container is valid when it holds exactly the counted entries, each a
// minimal uvarint length and a body parseBody accepts, and no byte after
// the last one; so a container that parses re-encodes to the same bytes.
// Nothing is copied.
func parseContainer(b []byte) (src netio.NodeID, entries []byte, err error) {
	if len(b) < containerHdrLen || b[0] != frameMagic || b[1] != containerVersion {
		return 0, nil, errBadFrame
	}
	count := int(binary.BigEndian.Uint16(b[6:8]))
	entries = b[containerHdrLen:]
	rest := entries
	for i := 0; i < count; i++ {
		n, w := binary.Uvarint(rest)
		if w <= 0 || w != uvarintLen(n) || n > uint64(len(rest)-w) {
			return 0, nil, fmt.Errorf("%w: entry %d/%d has no valid length", errBadFrame, i+1, count)
		}
		if _, _, _, err := parseBody(rest[w : w+int(n)]); err != nil {
			return 0, nil, fmt.Errorf("%w: entry %d/%d", err, i+1, count)
		}
		rest = rest[w+int(n):]
	}
	if len(rest) > 0 {
		return 0, nil, fmt.Errorf("%w: %d bytes after the last of %d entries", errBadFrame, len(rest), count)
	}
	return netio.NodeID(int32(binary.BigEndian.Uint32(b[2:6]))), entries, nil
}

// nextEntry decodes the first entry of a region parseContainer accepted
// and returns the rest; port, class and payload alias entries.
func nextEntry(entries []byte) (port, class, payload, rest []byte) {
	n, w := binary.Uvarint(entries)
	port, class, payload, _ = parseBody(entries[w : w+int(n)])
	return port, class, payload, entries[w+int(n):]
}

// parseFrame decodes a v1 datagram in place; port, class and payload
// alias b.
func parseFrame(b []byte) (src netio.NodeID, port, class, payload []byte, err error) {
	if len(b) < 6 || b[0] != frameMagic || b[1] != frameVersion {
		return 0, nil, nil, nil, errBadFrame
	}
	src = netio.NodeID(int32(binary.BigEndian.Uint32(b[2:6])))
	port, class, payload, err = parseBody(b[6:])
	return src, port, class, payload, err
}

// Send implements netio.Endpoint: the frame is coalesced toward dst (or,
// unbatched, transmitted point-to-point immediately).
func (e *Endpoint) Send(dst netio.NodeID, port, class string, payload []byte) error {
	if e.closed.Load() {
		return fmt.Errorf("udpnet: endpoint %d %w", e.id, netio.ErrClosed)
	}
	if len(payload) > netio.MaxPayload {
		return fmt.Errorf("udpnet: %w: %d > %d bytes", netio.ErrFrameTooLarge, len(payload), netio.MaxPayload)
	}
	if dst == e.id {
		// Loopback: stays in the host, never touches the NIC, so it is
		// not counted — matching every other substrate.
		if h, ok := e.ports.Get(port); ok && h != nil {
			h(e.id, port, payload)
		}
		return nil
	}
	addr := e.net.peer(dst)
	if addr == nil {
		return fmt.Errorf("udpnet: %w: %d", netio.ErrUnknownNode, dst)
	}
	if e.wire != nil {
		return e.wire.enqueue(wireDest{conn: e.conn, addr: addr}, port, class, payload)
	}
	return e.writeVia(e.conn, addr, port, class, payload)
}

// Multicast implements netio.Endpoint: one datagram (possibly carrying
// other coalesced frames for the group) to the segment's IP multicast
// group.
func (e *Endpoint) Multicast(seg, port, class string, payload []byte) error {
	if e.closed.Load() {
		return fmt.Errorf("udpnet: endpoint %d %w", e.id, netio.ErrClosed)
	}
	if len(payload) > netio.MaxPayload {
		return fmt.Errorf("udpnet: %w: %d > %d bytes", netio.ErrFrameTooLarge, len(payload), netio.MaxPayload)
	}
	attached := false
	for _, s := range e.segments {
		if s == seg {
			attached = true
			break
		}
	}
	if !attached {
		return fmt.Errorf("udpnet: node %d %w %q", e.id, netio.ErrNotAttached, seg)
	}
	gaddr := e.groups[seg]
	if gaddr == nil {
		return fmt.Errorf("udpnet: %w: %q", netio.ErrNoMulticast, seg)
	}
	if e.wire != nil {
		return e.wire.enqueue(wireDest{conn: e.mconn, addr: gaddr}, port, class, payload)
	}
	return e.writeVia(e.mconn, gaddr, port, class, payload)
}

// writeVia marshals and transmits one v1 frame through conn, counting the
// transmission (the unbatched path).
func (e *Endpoint) writeVia(conn *net.UDPConn, addr *net.UDPAddr, port, class string, payload []byte) error {
	bp, err := marshalFrame(e.id, port, class, payload)
	if err != nil {
		return err
	}
	// Count before the write, like a radio counts what it keys up, even
	// when the datagram is subsequently dropped.
	e.counters.AddTx(class, len(payload))
	e.counters.AddTxDatagram(len(*bp))
	e.counters.AddTxSyscall()
	_, werr := conn.WriteToUDP(*bp, addr)
	framePool.Put(bp)
	if werr != nil {
		if e.closed.Load() {
			return fmt.Errorf("udpnet: endpoint %d %w", e.id, netio.ErrClosed)
		}
		return fmt.Errorf("udpnet: node %d write to %v: %w", e.id, addr, werr)
	}
	return nil
}

// handleDatagram demultiplexes one received datagram — a v1 single frame
// or a v2 container — to port handlers. Payload slices lent to handlers
// alias the read buffer, honouring the netio.Handler borrowed-payload
// contract; nothing is copied on this path.
func (e *Endpoint) handleDatagram(b []byte) {
	if len(b) >= 2 && b[0] == frameMagic && b[1] == containerVersion {
		src, entries, err := parseContainer(b)
		if err != nil {
			e.logf("udpnet[%d]: drop %d-byte container: %v", e.id, len(b), err)
			return
		}
		if src == e.id {
			return // multicast loopback of our own transmission
		}
		e.counters.AddRxDatagram(len(b))
		for len(entries) > 0 {
			port, class, payload, rest := nextEntry(entries)
			entries = rest
			if e.closed.Load() {
				return
			}
			e.deliver(src, port, class, payload)
		}
		return
	}
	src, port, class, payload, err := parseFrame(b)
	if err != nil {
		e.logf("udpnet[%d]: drop %d-byte datagram: %v", e.id, len(b), err)
		return
	}
	if src == e.id {
		return // multicast loopback of our own transmission
	}
	if e.closed.Load() {
		return
	}
	e.counters.AddRxDatagram(len(b))
	e.deliver(src, port, class, payload)
}

// deliver accounts one received frame and hands it to its port handler
// under the registered port string.
func (e *Endpoint) deliver(src netio.NodeID, port, class, payload []byte) {
	e.counters.AddRxWire(class, len(payload))
	if p, h, ok := e.ports.Lookup(port); ok && h != nil {
		h(src, p, payload)
	}
}
