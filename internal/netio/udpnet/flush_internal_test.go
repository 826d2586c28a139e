package udpnet

import (
	"testing"
	"time"

	"morpheus/internal/netio"
)

// TestFlushLeavesSealedFramesToActiveDrainer pins the hand-off Flush makes
// when another goroutine is mid-drain: Flush seals the open datagram and
// returns at once, without transmitting or waiting, and the drainer's next
// sweep carries the datagram to the wire.
func TestFlushLeavesSealedFramesToActiveDrainer(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	nw, err := New(Config{
		Peers:          map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"},
		WireFlushDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	a, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	b.Handle("p", func(_ netio.NodeID, _ string, payload []byte) { got <- string(payload) })
	ep := a.(*Endpoint)
	c := ep.wire

	// Pose as a drainer caught inside its syscall.
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()

	if err := ep.Send(2, "p", "data", []byte("held")); err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	go func() {
		ep.Flush()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush waited on the active drainer")
	}
	c.mu.Lock()
	open, ready := len(c.open), len(c.ready)
	c.mu.Unlock()
	if open != 0 || ready != 1 {
		t.Fatalf("after Flush: %d open, %d sealed datagrams; want 0 open, 1 sealed for the drainer", open, ready)
	}
	if tx := ep.Counters().TxDatagrams; tx != 0 {
		t.Fatalf("Flush transmitted %d datagrams behind an active drainer", tx)
	}

	// The drainer leaves its syscall and loops: its next sweep picks the
	// sealed datagram up.
	c.mu.Lock()
	c.draining = false
	c.mu.Unlock()
	c.drain(false)
	select {
	case p := <-got:
		if p != "held" {
			t.Fatalf("received %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sealed datagram never reached the wire")
	}
}
