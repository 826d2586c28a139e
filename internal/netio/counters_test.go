package netio

import (
	"reflect"
	"testing"
)

// TestClassOfWireAgrees pins that the received-bytes class lookup maps
// every name exactly as the string lookup does, and that each class's
// String is the name that maps back to it.
func TestClassOfWireAgrees(t *testing.T) {
	for _, name := range []string{"data", "control", "other", "", "Data", "dat", "datas", "control\x00", "gossip"} {
		if got, want := classOfWire([]byte(name)), classOf(name); got != want {
			t.Errorf("classOfWire(%q) = %v, classOf = %v", name, got, want)
		}
	}
	for cl := Class(0); cl < numClasses; cl++ {
		if got := classOf(cl.String()); got != cl {
			t.Errorf("classOf(%q) = %v, want %v", cl.String(), got, cl)
		}
	}
	if classOf("gossip") != ClassOther {
		t.Error("an unknown class name is not counted as other")
	}
}

// TestCounterSetPerClass checks that AddTx, AddRx and AddRxWire count
// messages and payload bytes under their class, with unknown names folded
// into "other", and that the totals sum across classes.
func TestCounterSetPerClass(t *testing.T) {
	var s CounterSet
	s.AddTx("data", 100)
	s.AddTx("data", 20)
	s.AddTx("control", 7)
	s.AddTx("gossip", 3)
	s.AddRx("data", 50)
	s.AddRxWire([]byte("data"), 5)
	s.AddRxWire([]byte("control"), 9)
	s.AddRxWire([]byte("fec"), 1)
	s.AddRx("other", 2)

	c := s.Snapshot()
	wantTx := map[string]ClassCount{
		"data":    {Msgs: 2, Bytes: 120},
		"control": {Msgs: 1, Bytes: 7},
		"other":   {Msgs: 1, Bytes: 3},
	}
	wantRx := map[string]ClassCount{
		"data":    {Msgs: 2, Bytes: 55},
		"control": {Msgs: 1, Bytes: 9},
		"other":   {Msgs: 2, Bytes: 3},
	}
	if !reflect.DeepEqual(c.Tx, wantTx) {
		t.Errorf("Tx = %+v, want %+v", c.Tx, wantTx)
	}
	if !reflect.DeepEqual(c.Rx, wantRx) {
		t.Errorf("Rx = %+v, want %+v", c.Rx, wantRx)
	}
	if c.TotalTx() != 4 || c.TotalRx() != 5 {
		t.Errorf("TotalTx = %d, TotalRx = %d, want 4 and 5", c.TotalTx(), c.TotalRx())
	}
}

// TestCounterSetDatagramsAndSyscalls checks the wire-level counters: each
// datagram adds one unit and its on-wire bytes, each syscall one crossing,
// independently of the per-class frame counts.
func TestCounterSetDatagramsAndSyscalls(t *testing.T) {
	var s CounterSet
	s.AddTxDatagram(1400)
	s.AddTxDatagram(60)
	s.AddTxSyscall()
	s.AddRxDatagram(1400)
	s.AddRxSyscall()
	s.AddRxSyscall()

	c := s.Snapshot()
	want := Counters{
		Tx:          map[string]ClassCount{},
		Rx:          map[string]ClassCount{},
		TxDatagrams: 2, TxWireBytes: 1460, TxSyscalls: 1,
		RxDatagrams: 1, RxWireBytes: 1400, RxSyscalls: 2,
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("Snapshot = %+v, want %+v", c, want)
	}
	if c.TotalTx() != 0 || c.TotalRx() != 0 {
		t.Errorf("datagrams counted as messages: TotalTx %d, TotalRx %d", c.TotalTx(), c.TotalRx())
	}
}

// TestCounterSetSnapshotAfterReset checks that Reset zeroes every counter
// (a snapshot then omits every class), and that counting resumes from zero.
func TestCounterSetSnapshotAfterReset(t *testing.T) {
	var s CounterSet
	for _, class := range []string{"data", "control", "other"} {
		s.AddTx(class, 10)
		s.AddRx(class, 10)
	}
	s.AddTxDatagram(10)
	s.AddRxDatagram(10)
	s.AddTxSyscall()
	s.AddRxSyscall()

	s.Reset()
	zero := Counters{Tx: map[string]ClassCount{}, Rx: map[string]ClassCount{}}
	if c := s.Snapshot(); !reflect.DeepEqual(c, zero) {
		t.Fatalf("Snapshot after Reset = %+v, want all zero", c)
	}

	s.AddTx("control", 4)
	s.AddRxDatagram(30)
	c := s.Snapshot()
	if want := map[string]ClassCount{"control": {Msgs: 1, Bytes: 4}}; !reflect.DeepEqual(c.Tx, want) || len(c.Rx) != 0 {
		t.Errorf("after Reset and one send: Tx %+v, Rx %+v", c.Tx, c.Rx)
	}
	if c.RxDatagrams != 1 || c.RxWireBytes != 30 || c.TxDatagrams != 0 {
		t.Errorf("after Reset: datagrams tx %d rx %d (%d B)", c.TxDatagrams, c.RxDatagrams, c.RxWireBytes)
	}
}
