package netio

import "sync/atomic"

// Class is the small traffic-class enum the per-endpoint atomic counters
// are indexed by. Accounting strings map onto it via classOf; anything that
// is not "data" or "control" lands in ClassOther.
type Class uint8

// Traffic classes.
const (
	ClassData Class = iota
	ClassControl
	ClassOther
	numClasses
)

// classOf maps an accounting string to its counter index.
func classOf(class string) Class {
	switch class {
	case "data":
		return ClassData
	case "control":
		return ClassControl
	default:
		return ClassOther
	}
}

// classOfWire is classOf for a class name still in its received bytes;
// switching on the conversion allocates nothing.
func classOfWire(class []byte) Class {
	switch string(class) {
	case "data":
		return ClassData
	case "control":
		return ClassControl
	default:
		return ClassOther
	}
}

// String implements fmt.Stringer; it is also the snapshot map key.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassControl:
		return "control"
	default:
		return "other"
	}
}

// ClassCount accumulates message and byte counts for one traffic class.
type ClassCount struct {
	Msgs  uint64
	Bytes uint64
}

// Counters is a snapshot of an endpoint's traffic, keyed by class ("data",
// "control", or "other" for anything else).
//
// Tx/Rx count frames and payload bytes — the protocol-level quantities the
// paper's Figure 3 measures, independent of how the substrate packs them.
// The Wire fields count what actually crossed the substrate boundary:
// datagrams, on-wire bytes (headers included) and syscalls. On a batching
// substrate (udpnet with coalescing) TxDatagrams < Tx frame count and the
// ratio is the packing efficiency; simulated substrates report one
// datagram (and one nominal syscall) per frame so the fields stay
// comparable across backends.
type Counters struct {
	Tx map[string]ClassCount
	Rx map[string]ClassCount
	// TxDatagrams / RxDatagrams count substrate transmission units
	// (datagrams on udpnet, frames elsewhere).
	TxDatagrams, RxDatagrams uint64
	// TxWireBytes / RxWireBytes count on-wire bytes including frame and
	// container headers (payload bytes only, on substrates with no wire
	// encoding).
	TxWireBytes, RxWireBytes uint64
	// TxSyscalls / RxSyscalls count kernel crossings; with vectored I/O
	// one syscall covers many datagrams.
	TxSyscalls, RxSyscalls uint64
}

// TotalTx sums transmitted messages across classes.
func (c Counters) TotalTx() uint64 {
	var n uint64
	for _, cc := range c.Tx {
		n += cc.Msgs
	}
	return n
}

// TotalRx sums received messages across classes.
func (c Counters) TotalRx() uint64 {
	var n uint64
	for _, cc := range c.Rx {
		n += cc.Msgs
	}
	return n
}

// classCounter is one lock-free traffic counter.
type classCounter struct {
	msgs  atomic.Uint64
	bytes atomic.Uint64
}

// CounterSet is the lock-free per-endpoint traffic accounting every
// substrate shares: atomic counter arrays indexed by the Class enum. The
// zero value is ready to use.
//
// The counters are independent atomics, so a snapshot (or reset) taken
// while traffic is in flight can be off by the frame being accounted; take
// them at phase boundaries, as the experiments do, for exact values.
type CounterSet struct {
	tx, rx [numClasses]classCounter

	txDatagrams, rxDatagrams atomic.Uint64
	txWireBytes, rxWireBytes atomic.Uint64
	txSyscalls, rxSyscalls   atomic.Uint64
}

// AddTx counts one transmission of size bytes under class.
func (s *CounterSet) AddTx(class string, size int) {
	c := &s.tx[classOf(class)]
	c.msgs.Add(1)
	c.bytes.Add(uint64(size))
}

// AddRx counts one reception of size bytes under class.
func (s *CounterSet) AddRx(class string, size int) { s.addRx(classOf(class), size) }

// AddRxWire is AddRx for a class name still in its received bytes.
func (s *CounterSet) AddRxWire(class []byte, size int) { s.addRx(classOfWire(class), size) }

func (s *CounterSet) addRx(class Class, size int) {
	c := &s.rx[class]
	c.msgs.Add(1)
	c.bytes.Add(uint64(size))
}

// AddTxDatagram counts one transmitted datagram of wireBytes on-wire
// bytes (headers included).
func (s *CounterSet) AddTxDatagram(wireBytes int) {
	s.txDatagrams.Add(1)
	s.txWireBytes.Add(uint64(wireBytes))
}

// AddRxDatagram counts one received datagram of wireBytes on-wire bytes.
func (s *CounterSet) AddRxDatagram(wireBytes int) {
	s.rxDatagrams.Add(1)
	s.rxWireBytes.Add(uint64(wireBytes))
}

// AddTxSyscall counts one send-side kernel crossing (covering any number
// of datagrams under vectored I/O).
func (s *CounterSet) AddTxSyscall() { s.txSyscalls.Add(1) }

// AddRxSyscall counts one receive-side kernel crossing.
func (s *CounterSet) AddRxSyscall() { s.rxSyscalls.Add(1) }

// Snapshot returns the current counts. Classes with no traffic are
// omitted.
func (s *CounterSet) Snapshot() Counters {
	c := Counters{
		Tx:          make(map[string]ClassCount, int(numClasses)),
		Rx:          make(map[string]ClassCount, int(numClasses)),
		TxDatagrams: s.txDatagrams.Load(),
		RxDatagrams: s.rxDatagrams.Load(),
		TxWireBytes: s.txWireBytes.Load(),
		RxWireBytes: s.rxWireBytes.Load(),
		TxSyscalls:  s.txSyscalls.Load(),
		RxSyscalls:  s.rxSyscalls.Load(),
	}
	for cl := Class(0); cl < numClasses; cl++ {
		if m := s.tx[cl].msgs.Load(); m != 0 {
			c.Tx[cl.String()] = ClassCount{Msgs: m, Bytes: s.tx[cl].bytes.Load()}
		}
		if m := s.rx[cl].msgs.Load(); m != 0 {
			c.Rx[cl.String()] = ClassCount{Msgs: m, Bytes: s.rx[cl].bytes.Load()}
		}
	}
	return c
}

// Reset zeroes every counter.
func (s *CounterSet) Reset() {
	for cl := Class(0); cl < numClasses; cl++ {
		s.tx[cl].msgs.Store(0)
		s.tx[cl].bytes.Store(0)
		s.rx[cl].msgs.Store(0)
		s.rx[cl].bytes.Store(0)
	}
	s.txDatagrams.Store(0)
	s.rxDatagrams.Store(0)
	s.txWireBytes.Store(0)
	s.rxWireBytes.Store(0)
	s.txSyscalls.Store(0)
	s.rxSyscalls.Store(0)
}
