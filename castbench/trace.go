package main

import (
	"strconv"
	"strings"
	"sync/atomic"

	"morpheus"
	"morpheus/internal/clock"
	"morpheus/internal/core"
	"morpheus/internal/netio"
)

// maxEpochs bounds the configuration epochs whose frames are counted.
const maxEpochs = 4096

// castTrace is one cast's span boundaries on a traced run, indexed by
// sequence number.
type castTrace struct {
	sendRet int64        // mono() when Group.Send returned
	firstTx atomic.Int64 // first endpoint tx of a frame carrying the cast
	rx      [maxMembers]atomic.Int64
	last    atomic.Int32 // member whose delivery completed the cast
	txEpoch atomic.Int32 // epoch of the port the first tx used
}

// nodeTrace is one member's endpoint-level trace counters.
type nodeTrace struct {
	txCalls, txSelfNs atomic.Int64
	rxCalls, rxNs     atomic.Int64
	// nested is the time receivers ran inside this member's tx calls, by
	// port kind (loopnet delivers synchronously on the sender's
	// goroutine); tx self time excludes it.
	nested    [2]atomic.Int64
	ctlFrames atomic.Uint64
	// mobileFrames counts, per epoch, (data frame, traced mobile cast)
	// pairs this member transmitted: the Figure 3 quantity.
	mobileFrames [maxEpochs]atomic.Uint32
}

// tracer records spans and counts from outside the program: around the
// calls the program makes into each member's endpoint, and around the
// inbound handlers the program registers there.
type tracer struct {
	on       atomic.Bool
	fromSeq  atomic.Uint64 // casts at or above it are traced
	nested   bool          // receivers run inside the sender's tx call
	mobile   int           // member index of the mobile, or -1
	casts    []castTrace
	nodes    []nodeTrace
	epochCfg [maxEpochs]atomic.Int32 // 1 plain, 2 mecho; 0 unknown
}

func newTracer(members, capacity int, nested bool, mobile int) (*tracer, func(), error) {
	casts, free, err := offHeap[castTrace](capacity)
	if err != nil {
		return nil, nil, err
	}
	return &tracer{nested: nested, mobile: mobile, casts: casts, nodes: make([]nodeTrace, members)}, free, nil
}

// setEpoch records which stack an epoch deployed.
func (t *tracer) setEpoch(epoch uint64, configName string) {
	if epoch >= maxEpochs {
		return
	}
	cfg := int32(1)
	if configName != core.PlainConfigName {
		cfg = 2
	}
	t.epochCfg[epoch].Store(cfg)
}

// portKind is 0 for the control channel's port and 1 for data ports.
func portKind(port string) int {
	if port == morpheus.ControlPort {
		return 0
	}
	return 1
}

// epochOf parses the epoch from a data port ("data@7"), or returns -1.
func epochOf(port string) int {
	i := strings.LastIndexByte(port, '@')
	if i < 0 {
		return -1
	}
	e, err := strconv.Atoi(port[i+1:])
	if err != nil || e < 0 || e >= maxEpochs {
		return -1
	}
	return e
}

// tx stamps the casts a frame member idx is about to transmit carries and
// returns the call's start time.
func (t *tracer) tx(idx int, port, class string, frame []byte) int64 {
	now := mono()
	nt := &t.nodes[idx]
	if portKind(port) == 0 {
		nt.ctlFrames.Add(1)
		return now
	}
	epoch := epochOf(port)
	from := t.fromSeq.Load()
	for off := 0; ; {
		origin, seq, next, ok := nextTag(frame, off)
		if !ok {
			break
		}
		off = next
		if seq < from || seq >= uint64(len(t.casts)) {
			continue
		}
		ct := &t.casts[seq]
		if ct.firstTx.CompareAndSwap(0, now) {
			ct.txEpoch.Store(int32(epoch))
		}
		if origin == t.mobile && class == morpheus.ClassData && epoch >= 0 {
			nt.mobileFrames[epoch].Add(1)
		}
	}
	return now
}

// txDone accounts a finished tx call's self time.
func (t *tracer) txDone(idx int, port string, start, nestedBefore int64) {
	nt := &t.nodes[idx]
	nested := nt.nested[portKind(port)].Load() - nestedBefore
	nt.txCalls.Add(1)
	nt.txSelfNs.Add(mono() - start - nested)
}

// rx stamps handler entry at member idx for the casts a frame carries and
// returns the call's start time.
func (t *tracer) rx(idx int, port string, frame []byte) int64 {
	now := mono()
	if portKind(port) == 0 {
		return now
	}
	from := t.fromSeq.Load()
	for off := 0; ; {
		_, seq, next, ok := nextTag(frame, off)
		if !ok {
			break
		}
		off = next
		if seq >= from && seq < uint64(len(t.casts)) {
			t.casts[seq].rx[idx].CompareAndSwap(0, now)
		}
	}
	return now
}

// rxDone accounts a finished handler call; on a synchronous substrate the
// time is also charged as nested to the sender's tx call.
func (t *tracer) rxDone(idx int, src netio.NodeID, port string, start int64) {
	d := mono() - start
	nt := &t.nodes[idx]
	nt.rxCalls.Add(1)
	nt.rxNs.Add(d)
	if s := int(src) - 1; t.nested && s >= 0 && s < len(t.nodes) {
		t.nodes[s].nested[portKind(port)].Add(d)
	}
}

// tracedEndpoint decorates a member's endpoint with the tracer. It keeps
// no reference to any payload past the call that lent it.
type tracedEndpoint struct {
	netio.Endpoint
	tr  *tracer
	idx int
}

// Clock forwards the substrate's time plane, which morpheus.Start looks
// for on its endpoint; substrates without one yield nil, which Start
// treats exactly like a missing method.
func (e *tracedEndpoint) Clock() clock.Clock {
	if c, ok := e.Endpoint.(interface{ Clock() clock.Clock }); ok {
		return c.Clock()
	}
	return nil
}

// Send implements netio.Endpoint.
func (e *tracedEndpoint) Send(dst netio.NodeID, port, class string, payload []byte) error {
	if !e.tr.on.Load() {
		return e.Endpoint.Send(dst, port, class, payload)
	}
	nested := e.tr.nodes[e.idx].nested[portKind(port)].Load()
	start := e.tr.tx(e.idx, port, class, payload)
	err := e.Endpoint.Send(dst, port, class, payload)
	e.tr.txDone(e.idx, port, start, nested)
	return err
}

// Multicast implements netio.Endpoint.
func (e *tracedEndpoint) Multicast(segment, port, class string, payload []byte) error {
	if !e.tr.on.Load() {
		return e.Endpoint.Multicast(segment, port, class, payload)
	}
	nested := e.tr.nodes[e.idx].nested[portKind(port)].Load()
	start := e.tr.tx(e.idx, port, class, payload)
	err := e.Endpoint.Multicast(segment, port, class, payload)
	e.tr.txDone(e.idx, port, start, nested)
	return err
}

// Handle implements netio.Endpoint, wrapping the inbound handler.
func (e *tracedEndpoint) Handle(port string, h netio.Handler) {
	if h == nil {
		e.Endpoint.Handle(port, nil)
		return
	}
	e.Endpoint.Handle(port, func(src netio.NodeID, port string, payload []byte) {
		if !e.tr.on.Load() {
			h(src, port, payload)
			return
		}
		start := e.tr.rx(e.idx, port, payload)
		h(src, port, payload)
		e.tr.rxDone(e.idx, src, port, start)
	})
}
