// Package conformancetest is the executable specification of the netio
// substrate contract. Every backend — the deterministic simulator
// (internal/vnet), the in-process loopback (internal/netio/loopnet) and
// the real-socket substrate (internal/netio/udpnet) — runs the same suite,
// so the protocol layers above can switch substrates without changing
// behaviour: unicast addressing, native multicast fan-out, port isolation
// across reconfiguration epochs, traffic accounting, self-send loopback
// and close semantics are all pinned here.
package conformancetest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/netio"
)

// Harness adapts one backend to the suite.
type Harness struct {
	// New builds a fresh network for one subtest. The network must accept
	// Attach for node IDs 1..9 on Segment.
	New func(t *testing.T) netio.Network
	// Segment names a segment every endpoint attaches to.
	Segment string
	// Multicast reports whether Segment supports native multicast in this
	// environment; when false the fan-out subtest is skipped (e.g. a
	// sandbox without multicast routing).
	Multicast bool
	// Synchronous reports that deliveries complete before Send returns;
	// asynchronous backends get a settle window instead.
	Synchronous bool
	// NewFlushOnly, when set, builds a network like New whose wire plane
	// holds frames until a size seal, Flush or Close (udpnet with
	// WireFlushDelay: time.Hour). The Flush subtest runs on it; nil means
	// New, for backends that deliver eagerly.
	NewFlushOnly func(t *testing.T) netio.Network
}

// recorder collects deliveries on one endpoint port.
type recorder struct {
	mu   sync.Mutex
	got  []recorded
	wake chan struct{}
}

type recorded struct {
	src     netio.NodeID
	port    string
	payload string
}

func newRecorder() *recorder {
	return &recorder{wake: make(chan struct{}, 1)}
}

func (r *recorder) handler(src netio.NodeID, port string, payload []byte) {
	r.mu.Lock()
	r.got = append(r.got, recorded{src: src, port: port, payload: string(payload)})
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *recorder) snapshot() []recorded {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]recorded(nil), r.got...)
}

// waitCount blocks until the recorder holds at least n deliveries.
func (r *recorder) waitCount(t *testing.T, n int) []recorded {
	t.Helper()
	deadline := time.After(5 * time.Second) //lint:wallclock-ok real-socket substrates need wall timeouts
	for {
		if got := r.snapshot(); len(got) >= n {
			return got
		}
		select {
		case <-r.wake:
		case <-deadline:
			t.Fatalf("timed out waiting for %d deliveries, have %d", n, len(r.snapshot()))
		}
	}
}

// settle gives asynchronous substrates time to deliver (or not deliver)
// in-flight frames before a negative assertion.
func (h Harness) settle() {
	if !h.Synchronous {
		time.Sleep(50 * time.Millisecond) //lint:wallclock-ok settle wait for asynchronous real-socket delivery
	}
}

// attach adds an endpoint on the harness segment.
func attach(t *testing.T, nw netio.Network, h Harness, id netio.NodeID) netio.Endpoint {
	t.Helper()
	ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{h.Segment}})
	if err != nil {
		t.Fatalf("attach %d: %v", id, err)
	}
	return ep
}

// Run executes the conformance suite against one backend.
func Run(t *testing.T, h Harness) {
	t.Run("Unicast", func(t *testing.T) { testUnicast(t, h) })
	t.Run("UnknownDestination", func(t *testing.T) { testUnknownDestination(t, h) })
	t.Run("SelfSendLoopback", func(t *testing.T) { testSelfSend(t, h) })
	t.Run("MulticastFanout", func(t *testing.T) { testMulticastFanout(t, h) })
	t.Run("MulticastNotAttached", func(t *testing.T) { testMulticastNotAttached(t, h) })
	t.Run("PortIsolationAcrossEpochs", func(t *testing.T) { testPortIsolation(t, h) })
	t.Run("CrossGroupIsolation", func(t *testing.T) { testCrossGroupIsolation(t, h) })
	t.Run("CountersReset", func(t *testing.T) { testCountersReset(t, h) })
	t.Run("FrameTooLarge", func(t *testing.T) { testFrameTooLarge(t, h) })
	t.Run("OrderedBurst", func(t *testing.T) { testOrderedBurst(t, h) })
	t.Run("WireAccounting", func(t *testing.T) { testWireAccounting(t, h) })
	t.Run("Flush", func(t *testing.T) { testFlush(t, h) })
	t.Run("ConcurrentClose", func(t *testing.T) { testConcurrentClose(t, h) })
	t.Run("AttachAfterNetworkClose", func(t *testing.T) { testAttachAfterClose(t, h) })
}

func testAttachAfterClose(t *testing.T, h Harness) {
	nw := h.New(t)
	attach(t, nw, h, 1)
	if err := nw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed, Segments: []string{h.Segment}})
	if !errors.Is(err, netio.ErrClosed) {
		t.Fatalf("attach after network close: err = %v, want netio.ErrClosed", err)
	}
}

func testUnicast(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	if a.ID() != 1 || a.Kind() != netio.Fixed {
		t.Fatalf("identity: ID=%d Kind=%v", a.ID(), a.Kind())
	}
	rec := newRecorder()
	b.Handle("p", rec.handler)
	if err := a.Send(2, "p", "data", []byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	got := rec.waitCount(t, 1)
	if got[0].src != 1 || got[0].port != "p" || got[0].payload != "hello" {
		t.Fatalf("delivered %+v", got[0])
	}
	ac, bc := a.Counters(), b.Counters()
	if ac.Tx["data"].Msgs != 1 || ac.Tx["data"].Bytes != 5 {
		t.Fatalf("sender tx counters = %+v", ac.Tx)
	}
	if bc.Rx["data"].Msgs != 1 || bc.Rx["data"].Bytes != 5 {
		t.Fatalf("receiver rx counters = %+v", bc.Rx)
	}
}

func testUnknownDestination(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a := attach(t, nw, h, 1)
	err := a.Send(99, "p", "data", []byte("x"))
	if !errors.Is(err, netio.ErrUnknownNode) {
		t.Fatalf("err = %v, want netio.ErrUnknownNode", err)
	}
}

func testSelfSend(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a := attach(t, nw, h, 1)
	rec := newRecorder()
	a.Handle("p", rec.handler)
	if err := a.Send(1, "p", "data", []byte("me")); err != nil {
		t.Fatalf("self send: %v", err)
	}
	got := rec.waitCount(t, 1)
	if got[0].src != 1 || got[0].payload != "me" {
		t.Fatalf("delivered %+v", got[0])
	}
	// Loopback never touches the NIC: not accounted.
	c := a.Counters()
	if c.TotalTx() != 0 || c.TotalRx() != 0 {
		t.Fatalf("self send was accounted: %+v", c)
	}
}

func testMulticastFanout(t *testing.T, h Harness) {
	if !h.Multicast {
		t.Skipf("native multicast unavailable on this backend/environment")
	}
	nw := h.New(t)
	defer nw.Close()
	sender := attach(t, nw, h, 1)
	recs := make(map[netio.NodeID]*recorder)
	senderRec := newRecorder()
	sender.Handle("m", senderRec.handler)
	for id := netio.NodeID(2); id <= 4; id++ {
		ep := attach(t, nw, h, id)
		rec := newRecorder()
		ep.Handle("m", rec.handler)
		recs[id] = rec
	}
	if err := sender.Multicast(h.Segment, "m", "data", []byte("fan")); err != nil {
		t.Fatalf("multicast: %v", err)
	}
	for id, rec := range recs {
		got := rec.waitCount(t, 1)
		if got[0].src != 1 || got[0].payload != "fan" {
			t.Fatalf("node %d delivered %+v", id, got[0])
		}
	}
	h.settle()
	for id, rec := range recs {
		if n := len(rec.snapshot()); n != 1 {
			t.Fatalf("node %d received %d copies, want exactly 1", id, n)
		}
	}
	// One's own multicast is not received, and it costs one transmission.
	if n := len(senderRec.snapshot()); n != 0 {
		t.Fatalf("sender received its own multicast %d times", n)
	}
	if tx := sender.Counters().Tx["data"].Msgs; tx != 1 {
		t.Fatalf("multicast counted as %d transmissions, want 1", tx)
	}
}

func testMulticastNotAttached(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a := attach(t, nw, h, 1)
	// Not attached to this (possibly nonexistent) segment: the multicast
	// must fail with ErrNotAttached or ErrUnknownSegment, never fan out.
	err := a.Multicast("conformance-other-segment", "m", "data", []byte("x"))
	if !errors.Is(err, netio.ErrNotAttached) && !errors.Is(err, netio.ErrUnknownSegment) {
		t.Fatalf("err = %v, want ErrNotAttached or ErrUnknownSegment", err)
	}
}

// testPortIsolation models a reconfiguration: epoch ports ("data@1",
// "data@2") are independent; traffic to an unregistered port vanishes
// silently, which is what kills stale pre-reconfiguration frames.
func testPortIsolation(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)

	epoch1, epoch2 := newRecorder(), newRecorder()
	b.Handle("data@1", epoch1.handler)
	if err := a.Send(2, "data@1", "data", []byte("old-epoch")); err != nil {
		t.Fatalf("send: %v", err)
	}
	epoch1.waitCount(t, 1)

	// Reconfigure: epoch 1 port unbinds, epoch 2 binds.
	b.Handle("data@1", nil)
	b.Handle("data@2", epoch2.handler)
	if err := a.Send(2, "data@1", "data", []byte("stale")); err != nil {
		t.Fatalf("stale send: %v", err)
	}
	if err := a.Send(2, "data@2", "data", []byte("new-epoch")); err != nil {
		t.Fatalf("send: %v", err)
	}
	got := epoch2.waitCount(t, 1)
	if got[0].payload != "new-epoch" || got[0].port != "data@2" {
		t.Fatalf("epoch 2 delivered %+v", got[0])
	}
	h.settle()
	if n := len(epoch1.snapshot()); n != 1 {
		t.Fatalf("stale frame reached the old epoch: %d deliveries on data@1, want 1", n)
	}
	if n := len(epoch2.snapshot()); n != 1 {
		t.Fatalf("epoch 2 got %d deliveries, want 1", n)
	}
}

// testCrossGroupIsolation models a multi-group node: two hosted groups use
// group-namespaced ports that share the same port leaf ("alpha/data@1",
// "beta/data@1" — same base and epoch). Frames addressed to one group's
// port must never surface on the other's handler: group isolation is the
// port namespace, so the substrate's exact-port demux is what enforces it.
func testCrossGroupIsolation(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)

	const (
		alphaPort = "alpha/data@1"
		betaPort  = "beta/data@1"
	)
	alpha, beta := newRecorder(), newRecorder()
	b.Handle(alphaPort, alpha.handler)
	b.Handle(betaPort, beta.handler)

	if err := a.Send(2, alphaPort, "data", []byte("for-alpha")); err != nil {
		t.Fatalf("send alpha: %v", err)
	}
	if err := a.Send(2, betaPort, "data", []byte("for-beta")); err != nil {
		t.Fatalf("send beta: %v", err)
	}
	gotA := alpha.waitCount(t, 1)
	gotB := beta.waitCount(t, 1)
	if gotA[0].payload != "for-alpha" || gotA[0].port != alphaPort {
		t.Fatalf("alpha delivered %+v", gotA[0])
	}
	if gotB[0].payload != "for-beta" || gotB[0].port != betaPort {
		t.Fatalf("beta delivered %+v", gotB[0])
	}
	h.settle()
	if n := len(alpha.snapshot()); n != 1 {
		t.Fatalf("alpha got %d deliveries, want exactly 1 (cross-group leak)", n)
	}
	if n := len(beta.snapshot()); n != 1 {
		t.Fatalf("beta got %d deliveries, want exactly 1 (cross-group leak)", n)
	}

	// One group leaving (port unbound) must not disturb the other, and the
	// leaver's traffic must vanish rather than leak.
	b.Handle(alphaPort, nil)
	if err := a.Send(2, alphaPort, "data", []byte("after-leave")); err != nil {
		t.Fatalf("send after leave: %v", err)
	}
	if err := a.Send(2, betaPort, "data", []byte("beta-still-up")); err != nil {
		t.Fatalf("send beta 2: %v", err)
	}
	beta.waitCount(t, 2)
	h.settle()
	if n := len(alpha.snapshot()); n != 1 {
		t.Fatalf("left group still received frames: %d", n)
	}
}

func testCountersReset(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	rec := newRecorder()
	b.Handle("p", rec.handler)
	for i := 0; i < 3; i++ {
		if err := a.Send(2, "p", "control", []byte("c")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	rec.waitCount(t, 3)
	if tx := a.Counters().Tx["control"].Msgs; tx != 3 {
		t.Fatalf("tx control = %d, want 3", tx)
	}
	a.ResetCounters()
	b.ResetCounters()
	if c := a.Counters(); c.TotalTx() != 0 {
		t.Fatalf("reset left tx counters %+v", c.Tx)
	}
	if c := b.Counters(); c.TotalRx() != 0 {
		t.Fatalf("reset left rx counters %+v", c.Rx)
	}
}

// testFrameTooLarge pins the payload ceiling as part of the substrate
// contract: every backend accepts exactly netio.MaxPayload bytes and
// rejects one byte more with the typed sentinel, so layers can size
// fragmentation against a single constant.
func testFrameTooLarge(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	rec := newRecorder()
	b.Handle("p", rec.handler)

	if err := a.Send(2, "p", "data", make([]byte, netio.MaxPayload+1)); !errors.Is(err, netio.ErrFrameTooLarge) {
		t.Fatalf("send over MaxPayload: err = %v, want netio.ErrFrameTooLarge", err)
	}
	if err := a.Multicast(h.Segment, "m", "data", make([]byte, netio.MaxPayload+1)); !errors.Is(err, netio.ErrFrameTooLarge) {
		t.Fatalf("multicast over MaxPayload: err = %v, want netio.ErrFrameTooLarge", err)
	}
	// The rejected frames must not have been accounted or delivered.
	if tx := a.Counters().TotalTx(); tx != 0 {
		t.Fatalf("rejected frames were accounted: TotalTx = %d", tx)
	}
	if err := a.Send(2, "p", "data", make([]byte, netio.MaxPayload)); err != nil {
		t.Fatalf("send at exactly MaxPayload: %v", err)
	}
	got := rec.waitCount(t, 1)
	if len(got[0].payload) != netio.MaxPayload {
		t.Fatalf("delivered %d bytes, want %d", len(got[0].payload), netio.MaxPayload)
	}
}

// testOrderedBurst pins per-destination FIFO through whatever batching
// the backend applies: a burst of frames to one peer — small enough to
// share a coalesced datagram and numerous enough to span several — must
// surface at the receiver in send order, within and across datagrams.
func testOrderedBurst(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	rec := newRecorder()
	b.Handle("p", rec.handler)

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(2, "p", "data", []byte(fmt.Sprintf("seq-%04d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	a.Flush()
	got := rec.waitCount(t, n)
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("seq-%04d", i); got[i].payload != want {
			t.Fatalf("delivery %d = %q, want %q (order broken across coalesced datagrams)", i, got[i].payload, want)
		}
	}
}

// testWireAccounting pins the datagram/syscall counter contract: frame
// accounting (Tx/Rx) is packing-independent, while TxDatagrams,
// TxWireBytes and TxSyscalls describe what actually hit the wire —
// never more datagrams than frames, never more syscalls than datagrams,
// and wire bytes at least the payload bytes carried.
func testWireAccounting(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	rec := newRecorder()
	b.Handle("p", rec.handler)

	const n, size = 32, 64
	for i := 0; i < n; i++ {
		if err := a.Send(2, "p", "data", make([]byte, size)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	a.Flush()
	rec.waitCount(t, n)

	ac, bc := a.Counters(), b.Counters()
	if got := ac.Tx["data"]; got.Msgs != n || got.Bytes != n*size {
		t.Fatalf("frame accounting = %+v, want %d msgs / %d bytes regardless of packing", got, n, n*size)
	}
	if ac.TxDatagrams < 1 || ac.TxDatagrams > n {
		t.Fatalf("TxDatagrams = %d, want 1..%d", ac.TxDatagrams, n)
	}
	if ac.TxSyscalls < 1 || ac.TxSyscalls > ac.TxDatagrams {
		t.Fatalf("TxSyscalls = %d, want 1..%d (one vectored syscall may cover several datagrams)", ac.TxSyscalls, ac.TxDatagrams)
	}
	if ac.TxWireBytes < n*size {
		t.Fatalf("TxWireBytes = %d, want >= %d (payload cannot exceed wire bytes)", ac.TxWireBytes, n*size)
	}
	if bc.RxDatagrams < 1 || bc.RxDatagrams > n {
		t.Fatalf("RxDatagrams = %d, want 1..%d", bc.RxDatagrams, n)
	}
	if bc.RxSyscalls < 1 || bc.RxSyscalls > bc.RxDatagrams {
		t.Fatalf("RxSyscalls = %d, want 1..%d", bc.RxSyscalls, bc.RxDatagrams)
	}
	a.ResetCounters()
	if c := a.Counters(); c.TxDatagrams != 0 || c.TxWireBytes != 0 || c.TxSyscalls != 0 {
		t.Fatalf("ResetCounters left wire counters: %+v", c)
	}
}

// testFlush pins the Flush contract: it returns promptly — it never waits
// out a delay bound or another goroutine's transmission — and every frame
// accepted before it reaches the receiver even when the backend's delay
// bound would hold it for an hour. Flush on an idle or closed endpoint is
// a harmless no-op.
func testFlush(t *testing.T, h Harness) {
	newNet := h.NewFlushOnly
	if newNet == nil {
		newNet = h.New
	}
	nw := newNet(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	rec := newRecorder()
	b.Handle("p", rec.handler)

	a.Flush() // nothing pending
	if err := a.Send(2, "p", "data", []byte("unicast")); err != nil {
		t.Fatalf("send: %v", err)
	}
	want := []string{"unicast"}
	if h.Multicast {
		if err := a.Multicast(h.Segment, "p", "data", []byte("multicast")); err != nil {
			t.Fatalf("multicast: %v", err)
		}
		want = append(want, "multicast")
	}
	start := time.Now() //lint:wallclock-ok times a real-socket call
	a.Flush()
	if took := time.Since(start); took > time.Second { //lint:wallclock-ok times a real-socket call
		t.Fatalf("Flush took %v", took)
	}
	got := rec.waitCount(t, len(want))
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		seen[r.payload] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("frame %q sent before Flush never arrived; got %+v", w, got)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	a.Flush() // closed
}

// testConcurrentClose hammers Send from several goroutines while the
// endpoint closes: no panic, no deadlock, Close idempotent, and sends
// observed strictly after Close fail.
func testConcurrentClose(t *testing.T, h Harness) {
	nw := h.New(t)
	defer nw.Close()
	a, b := attach(t, nw, h, 1), attach(t, nw, h, 2)
	b.Handle("p", func(netio.NodeID, string, []byte) {})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("burst-%d", g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.Send(2, "p", "data", payload) // errors near close are fine
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond) //lint:wallclock-ok lets in-flight frames land on real sockets before close
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := a.Send(2, "p", "data", []byte("after")); !errors.Is(err, netio.ErrClosed) {
		t.Fatalf("send after close: err = %v, want netio.ErrClosed", err)
	}
	if err := a.Multicast(h.Segment, "p", "data", []byte("after")); !errors.Is(err, netio.ErrClosed) {
		t.Fatalf("multicast after close: err = %v, want netio.ErrClosed", err)
	}
}
