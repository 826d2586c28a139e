package vnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
)

// chaosWorld builds a two-segment world with a few nodes and a delivery
// recorder, on a virtual clock so arrival instants are observable.
func chaosWorld(t *testing.T, seed int64) (*World, *clock.Virtual, map[NodeID]*Node, func(NodeID) int) {
	t.Helper()
	clk := clock.NewVirtual()
	t.Cleanup(clk.Stop)
	w := NewWorld(seed, clk)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(SegmentConfig{Name: "lan", NativeMulticast: true})

	var mu sync.Mutex
	rx := make(map[NodeID]int)
	nodes := make(map[NodeID]*Node)
	for i := 1; i <= 4; i++ {
		id := NodeID(i)
		n, err := w.AddNode(id, Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		n.Handle("p", func(src NodeID, port string, payload []byte) {
			mu.Lock()
			rx[id]++
			mu.Unlock()
		})
		nodes[id] = n
	}
	got := func(id NodeID) int {
		mu.Lock()
		defer mu.Unlock()
		return rx[id]
	}
	return w, clk, nodes, got
}

// TestLinkLossOverride pins the per-link override semantics: an override
// replaces the segment loss on exactly that directed link, and clearing it
// restores the segment default.
func TestLinkLossOverride(t *testing.T) {
	w, clk, nodes, got := chaosWorld(t, 5)

	// Segment is lossless; cut 1→2 completely, leave 1→3 alone.
	w.SetLinkLoss(1, 2, 1.0)
	for i := 0; i < 10; i++ {
		if err := nodes[1].Send(2, "p", "data", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Send(3, "p", "data", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	clk.Sleep(10 * time.Millisecond)
	if got(2) != 0 {
		t.Fatalf("node 2 received %d frames through a loss=1 link", got(2))
	}
	if got(3) != 10 {
		t.Fatalf("node 3 received %d frames, want 10 (override must not bleed across links)", got(3))
	}

	// The reverse direction 2→1 is unaffected (overrides are directed).
	if err := nodes[2].Send(1, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got(1) != 1 {
		t.Fatalf("node 1 received %d, want 1 (reverse direction must stay clean)", got(1))
	}

	// Clearing (negative loss) restores the segment default.
	w.SetLinkLoss(1, 2, -1)
	if err := nodes[1].Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got(2) != 1 {
		t.Fatalf("node 2 received %d after clear, want 1", got(2))
	}
}

// TestLinkLatencyOverride pins that a latency override replaces the
// segment latency for that link, observable as a shifted arrival instant
// on the virtual timeline, and that multicast honours it per receiver.
func TestLinkLatencyOverride(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := NewWorld(9, clk)
	defer w.Close()
	w.AddSegment(SegmentConfig{Name: "lan", Latency: time.Millisecond, NativeMulticast: true})

	var mu sync.Mutex
	arrivals := make(map[NodeID]time.Time)
	nodes := make(map[NodeID]*Node)
	for i := 1; i <= 3; i++ {
		id := NodeID(i)
		n, err := w.AddNode(id, Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		n.Handle("p", func(src NodeID, port string, payload []byte) {
			mu.Lock()
			arrivals[id] = clk.Now()
			mu.Unlock()
		})
		nodes[id] = n
	}

	w.SetLinkLatency(1, 2, 50*time.Millisecond)
	start := clk.Now()
	if err := nodes[1].Multicast("lan", "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(100 * time.Millisecond)
	mu.Lock()
	slow, fast := arrivals[2], arrivals[3]
	mu.Unlock()
	if d := slow.Sub(start); d != 50*time.Millisecond {
		t.Fatalf("overridden link delivered after %v, want 50ms", d)
	}
	if d := fast.Sub(start); d != time.Millisecond {
		t.Fatalf("untouched link delivered after %v, want 1ms", d)
	}
}

// TestPartitionHeal pins the cell semantics: cross-cell frames (unicast
// and native multicast) vanish while same-cell frames flow, transmissions
// are still counted at the sender, and Heal restores full connectivity.
func TestPartitionHeal(t *testing.T) {
	w, clk, nodes, got := chaosWorld(t, 7)

	w.Partition([]NodeID{1, 2}, []NodeID{3, 4})
	if err := nodes[1].Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err) // same cell
	}
	if err := nodes[1].Send(3, "p", "data", []byte("x")); err != nil {
		t.Fatal(err) // cross cell: silently lost, as with loss
	}
	txBefore := nodes[1].Counters().TotalTx()
	if txBefore != 2 {
		t.Fatalf("sender counted %d transmissions, want 2 (the radio transmits either way)", txBefore)
	}
	if err := nodes[3].Multicast("lan", "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got(2) != 1 {
		t.Fatalf("node 2 got %d, want 1 (same-cell unicast)", got(2))
	}
	if got(3) != 0 {
		t.Fatalf("node 3 got %d, want 0 (cross-cell unicast cut)", got(3))
	}
	if got(4) != 1 {
		t.Fatalf("node 4 got %d, want 1 (same-cell multicast)", got(4))
	}
	if got(1) != 0 {
		t.Fatalf("node 1 got %d, want 0 (cross-cell multicast cut)", got(1))
	}

	w.Heal()
	if err := nodes[1].Send(3, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got(3) != 1 {
		t.Fatalf("node 3 got %d after heal, want 1", got(3))
	}
}

// TestDetachCrashStop pins Detach against the substrate-uniform Close
// contract that internal/netio/conformancetest enforces on vnet, loopnet
// and udpnet alike: after a crash-stop, the node's sends fail with an
// error matching netio.ErrClosed (exactly as a send on a closed udpnet
// socket does), inbound frames are dropped without a trace, and the node's
// counters stay readable. This is the cross-substrate pin that makes vnet
// crash-stops a faithful stand-in for killing a process on a live UDP
// deployment.
func TestDetachCrashStop(t *testing.T) {
	w, clk, nodes, got := chaosWorld(t, 11)

	if err := w.Detach(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Detach(99); err == nil || !errors.Is(err, netio.ErrUnknownNode) {
		t.Fatalf("detach of unknown node: err = %v, want ErrUnknownNode", err)
	}

	// The crashed node's sends fail exactly like a closed socket's.
	if err := nodes[2].Send(1, "p", "data", []byte("x")); !errors.Is(err, netio.ErrClosed) {
		t.Fatalf("send from detached node: err = %v, want netio.ErrClosed", err)
	}
	if err := nodes[2].Multicast("lan", "p", "data", []byte("x")); !errors.Is(err, netio.ErrClosed) {
		t.Fatalf("multicast from detached node: err = %v, want netio.ErrClosed", err)
	}

	// Inbound traffic is silently dropped; the sender cannot tell.
	if err := nodes[1].Send(2, "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Multicast("lan", "p", "data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(10 * time.Millisecond)
	if got(2) != 0 {
		t.Fatalf("detached node received %d frames", got(2))
	}
	if got(3) != 1 || got(4) != 1 {
		t.Fatalf("live receivers got %d/%d, want 1/1", got(3), got(4))
	}

	// Counters remain readable (the world keeps the node in its topology).
	if tx := nodes[2].Counters().TotalTx(); tx != 0 {
		t.Fatalf("detached node counted %d transmissions", tx)
	}

	// Detach is idempotent, like Close.
	if err := w.Detach(2); err != nil {
		t.Fatalf("second detach: %v", err)
	}
}
