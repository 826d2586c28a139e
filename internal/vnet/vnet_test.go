package vnet

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"morpheus/internal/clock"
)

// virtualWorld builds an empty world on a fresh virtual clock. The test
// goroutine creates the clock, so it holds the run token; cleanup closes
// the world before stopping the clock.
func virtualWorld(t *testing.T, seed int64) (*World, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	t.Cleanup(clk.Stop)
	w := NewWorld(seed, clk)
	t.Cleanup(func() { _ = w.Close() })
	return w, clk
}

func newTestWorld(t *testing.T) *World {
	t.Helper()
	w, _ := virtualWorld(t, 42)
	w.AddSegment(SegmentConfig{Name: "lan", NativeMulticast: true})
	w.AddSegment(SegmentConfig{Name: "wlan", Wireless: true})
	return w
}

type inbox struct {
	mu   sync.Mutex
	msgs []string
}

func (ib *inbox) handler() Handler {
	return func(src NodeID, port string, payload []byte) {
		ib.mu.Lock()
		defer ib.mu.Unlock()
		ib.msgs = append(ib.msgs, string(payload))
	}
}

func (ib *inbox) list() []string {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	cp := make([]string, len(ib.msgs))
	copy(cp, ib.msgs)
	return cp
}

func TestSendDeliversAndCounts(t *testing.T) {
	w := newTestWorld(t)
	a, err := w.AddNode(1, Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.AddNode(2, Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	var ib inbox
	b.Handle("p", ib.handler())

	if err := a.Send(2, "p", "data", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := ib.list()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered = %v", got)
	}
	ca, cb := a.Counters(), b.Counters()
	if ca.Tx["data"].Msgs != 1 || ca.Tx["data"].Bytes != 5 {
		t.Fatalf("sender counters = %+v", ca.Tx)
	}
	if cb.Rx["data"].Msgs != 1 {
		t.Fatalf("receiver counters = %+v", cb.Rx)
	}
}

func TestSendToUnknownPortIsDropped(t *testing.T) {
	w := newTestWorld(t)
	a, _ := w.AddNode(1, Fixed, "lan")
	if _, err := w.AddNode(2, Fixed, "lan"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "ghost", "data", []byte("x")); err != nil {
		t.Fatal(err) // drop is silent, like UDP
	}
}

func TestSendUnknownNode(t *testing.T) {
	w := newTestWorld(t)
	a, _ := w.AddNode(1, Fixed, "lan")
	if err := a.Send(99, "p", "data", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestNativeMulticastSingleTransmission(t *testing.T) {
	w := newTestWorld(t)
	sender, _ := w.AddNode(1, Fixed, "lan")
	var boxes [3]inbox
	for i := 0; i < 3; i++ {
		n, err := w.AddNode(NodeID(2+i), Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		n.Handle("p", boxes[i].handler())
	}
	if err := sender.Multicast("lan", "p", "data", []byte("m")); err != nil {
		t.Fatal(err)
	}
	for i := range boxes {
		if got := boxes[i].list(); len(got) != 1 {
			t.Fatalf("receiver %d got %v", i, got)
		}
	}
	if c := sender.Counters(); c.Tx["data"].Msgs != 1 {
		t.Fatalf("multicast counted as %d transmissions, want 1", c.Tx["data"].Msgs)
	}
}

func TestMulticastRequiresCapability(t *testing.T) {
	w := newTestWorld(t)
	m, _ := w.AddNode(1, Mobile, "wlan")
	if err := m.Multicast("wlan", "p", "data", nil); !errors.Is(err, ErrNoMulticast) {
		t.Fatalf("err = %v, want ErrNoMulticast", err)
	}
	if err := m.Multicast("lan", "p", "data", nil); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("err = %v, want ErrNotAttached", err)
	}
}

func TestLossDropsButCountsTx(t *testing.T) {
	w, _ := virtualWorld(t, 7)
	w.AddSegment(SegmentConfig{Name: "lossy", Loss: 1.0})
	a, _ := w.AddNode(1, Fixed, "lossy")
	b, _ := w.AddNode(2, Fixed, "lossy")
	var ib inbox
	b.Handle("p", ib.handler())
	for i := 0; i < 10; i++ {
		if err := a.Send(2, "p", "data", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := ib.list(); len(got) != 0 {
		t.Fatalf("lossy link delivered %v", got)
	}
	if c := a.Counters(); c.Tx["data"].Msgs != 10 {
		t.Fatalf("tx count = %d, want 10 (radio transmits even when frames are lost)", c.Tx["data"].Msgs)
	}
}

func TestPartialLossStatistics(t *testing.T) {
	w, _ := virtualWorld(t, 1)
	w.AddSegment(SegmentConfig{Name: "flaky", Loss: 0.5})
	a, _ := w.AddNode(1, Fixed, "flaky")
	b, _ := w.AddNode(2, Fixed, "flaky")
	var ib inbox
	b.Handle("p", ib.handler())
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(2, "p", "data", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := len(ib.list())
	if got < total/3 || got > total*2/3 {
		t.Fatalf("50%% loss delivered %d of %d", got, total)
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	w := newTestWorld(t)
	a, _ := w.AddNode(1, Fixed, "lan")
	b, _ := w.AddNode(2, Fixed, "lan")
	var ib inbox
	b.Handle("p", ib.handler())

	b.SetDown(true)
	if err := a.Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(ib.list()) != 0 {
		t.Fatal("crashed node received traffic")
	}
	a.SetDown(true)
	if err := a.Send(2, "p", "data", []byte("x")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send from crashed node: %v", err)
	}
	a.SetDown(false)
	b.SetDown(false)
	if err := a.Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(ib.list()) != 1 {
		t.Fatal("revived node did not receive")
	}
}

func TestBatteryDrainAndDeath(t *testing.T) {
	w := newTestWorld(t)
	m, _ := w.AddNode(1, Mobile, "wlan")
	f, _ := w.AddNode(2, Fixed, "lan")
	_ = f
	m.SetEnergy(EnergyConfig{CapacityJ: 0.01, TxPerMsgJ: 0.004})

	for i := 0; i < 2; i++ {
		if err := m.Send(2, "p", "data", []byte("x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	j, metered := m.BatteryJ()
	if !metered {
		t.Fatal("battery not metered")
	}
	if j >= 0.01 {
		t.Fatalf("battery did not drain: %v", j)
	}
	// Third send exhausts; subsequent sends fail.
	_ = m.Send(2, "p", "data", []byte("x"))
	if err := m.Send(2, "p", "data", []byte("x")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("dead battery send: %v", err)
	}
	if m.Alive() {
		t.Fatal("node alive with dead battery")
	}
	if m.BatteryFraction() != 0 {
		t.Fatalf("fraction = %v, want 0", m.BatteryFraction())
	}
}

func TestFixedNodeUnmetered(t *testing.T) {
	w := newTestWorld(t)
	f, _ := w.AddNode(1, Fixed, "lan")
	if _, err := w.AddNode(2, Fixed, "lan"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := f.Send(2, "p", "data", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if f.BatteryFraction() != 1 {
		t.Fatal("fixed node drained a battery it does not have")
	}
}

// TestLatencyDelaysDelivery pins that a segment's latency puts the arrival
// exactly that far along the virtual timeline: nothing at +29 ms, the
// frame at +30 ms.
func TestLatencyDelaysDelivery(t *testing.T) {
	w, clk := virtualWorld(t, 3)
	w.AddSegment(SegmentConfig{Name: "slow", Latency: 30 * time.Millisecond})
	a, _ := w.AddNode(1, Fixed, "slow")
	b, _ := w.AddNode(2, Fixed, "slow")
	var arrivals []time.Time
	b.Handle("p", func(src NodeID, port string, payload []byte) {
		arrivals = append(arrivals, clk.Now())
	})
	start := clk.Now()
	if err := a.Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(29 * time.Millisecond)
	if len(arrivals) != 0 {
		t.Fatalf("delivered at +%v, before the 30ms latency", arrivals[0].Sub(start))
	}
	clk.Sleep(time.Second)
	if len(arrivals) != 1 {
		t.Fatalf("delivered %d times, want 1", len(arrivals))
	}
	if d := arrivals[0].Sub(start); d != 30*time.Millisecond {
		t.Fatalf("delivered at +%v, want exactly +30ms", d)
	}
}

func TestCrossSegmentUnicast(t *testing.T) {
	w := newTestWorld(t)
	m, _ := w.AddNode(1, Mobile, "wlan")
	f, _ := w.AddNode(2, Fixed, "lan")
	var ib inbox
	f.Handle("p", ib.handler())
	if err := m.Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(ib.list()) != 1 {
		t.Fatal("cross-segment unicast failed")
	}
}

// TestWorldCloseStopsDeliveries pins Close's contract: a frame still in
// flight when the world closes is never handed to its receiver, and later
// sends fail.
func TestWorldCloseStopsDeliveries(t *testing.T) {
	w, clk := virtualWorld(t, 9)
	w.AddSegment(SegmentConfig{Name: "slow", Latency: 50 * time.Millisecond})
	a, _ := w.AddNode(1, Fixed, "slow")
	b, _ := w.AddNode(2, Fixed, "slow")
	var ib inbox
	b.Handle("p", ib.handler())
	if err := a.Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(80 * time.Millisecond)
	if len(ib.list()) != 0 {
		t.Fatal("delivery happened after Close")
	}
	if err := a.Send(2, "p", "data", []byte("x")); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestResetCounters(t *testing.T) {
	w := newTestWorld(t)
	a, _ := w.AddNode(1, Fixed, "lan")
	if _, err := w.AddNode(2, Fixed, "lan"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	a.ResetCounters()
	if a.Counters().TotalTx() != 0 {
		t.Fatal("counters not reset")
	}
}

// Property: for loss-free segments, every sent message is delivered exactly
// once and tx/rx counters agree, for any interleaving of sends.
func TestConservationProperty(t *testing.T) {
	f := func(sends []uint8) bool {
		clk := clock.NewVirtual()
		defer clk.Stop()
		w := NewWorld(11, clk)
		defer w.Close()
		w.AddSegment(SegmentConfig{Name: "lan", NativeMulticast: true})
		n1, _ := w.AddNode(1, Fixed, "lan")
		n2, _ := w.AddNode(2, Fixed, "lan")
		var ib1, ib2 inbox
		n1.Handle("p", ib1.handler())
		n2.Handle("p", ib2.handler())
		want1, want2 := 0, 0
		for _, s := range sends {
			if s%2 == 0 {
				if err := n1.Send(2, "p", "data", []byte{s}); err != nil {
					return false
				}
				want2++
			} else {
				if err := n2.Send(1, "p", "data", []byte{s}); err != nil {
					return false
				}
				want1++
			}
		}
		return len(ib1.list()) == want1 && len(ib2.list()) == want2 &&
			n1.Counters().TotalTx() == uint64(want2) &&
			n2.Counters().TotalRx() == uint64(want2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
