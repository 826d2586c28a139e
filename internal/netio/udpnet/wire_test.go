package udpnet_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/netio"
	"morpheus/internal/netio/udpnet"
)

// wirePair builds a two-node udpnet with the given wire-plane knobs and
// returns the endpoints plus a recorder of everything node 2 receives on
// port "p".
func wirePair(t *testing.T, cfg udpnet.Config) (a, b netio.Endpoint, rec *recorder) {
	t.Helper()
	cfg.Peers = map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	nw, err := udpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nw.Close() })
	a, err = nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	b, err = nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	rec = &recorder{}
	b.Handle("p", rec.handle)
	return a, b, rec
}

// recorder captures delivered payloads in arrival order.
type recorder struct {
	mu   sync.Mutex
	msgs []string
}

func (r *recorder) handle(_ netio.NodeID, _ string, payload []byte) {
	r.mu.Lock()
	r.msgs = append(r.msgs, string(payload))
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.msgs...)
}

// waitMsgs polls until the recorder holds want messages (order-preserving
// UDP loopback makes the contents deterministic once the count matches).
func waitMsgs(t *testing.T, rec *recorder, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := rec.snapshot()
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: received %d/%d messages: %v", len(got), want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWirePackingAtMTUBoundary pins the size-based seal: with MTU 128,
// port "p" and class "data", a 20-byte payload costs exactly 28 container
// bytes (1 length prefix + 1+1 port + 1+4 class + 20 payload), so 4
// frames fill a datagram to 8+4×28 = 120 bytes and the 5th must seal it.
// Eight casts therefore cross the wire as exactly 2 datagrams.
func TestWirePackingAtMTUBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 128, WireFlushDelay: time.Hour})
	var want []string
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("msg-%02d-%013d", i, i)[:20]
		want = append(want, p)
		if err := a.Send(2, "p", "data", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	got := waitMsgs(t, rec, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken at %d: got %q want %q\nall: %v", i, got[i], want[i], got)
		}
	}
	c := a.Counters()
	if c.TxDatagrams != 2 {
		t.Fatalf("TxDatagrams = %d, want 2 (8 frames packed 4-per-datagram)", c.TxDatagrams)
	}
	if c.TxWireBytes != 240 {
		t.Fatalf("TxWireBytes = %d, want 240 (2 × (8-byte header + 4×28))", c.TxWireBytes)
	}
	if c.TxSyscalls == 0 || c.TxSyscalls > c.TxDatagrams {
		t.Fatalf("TxSyscalls = %d, want 1..%d", c.TxSyscalls, c.TxDatagrams)
	}
	if got := c.Tx["data"].Msgs; got != 8 {
		t.Fatalf("Tx frames = %d, want 8 (frame accounting is packing-independent)", got)
	}
}

// TestWireDelayFlushOnVirtualClock pins the delay bound deterministically:
// with the flush timer on a virtual clock, coalesced frames stay queued
// while virtual time stands still and go to the wire exactly when the
// clock passes WireFlushDelay.
func TestWireDelayFlushOnVirtualClock(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	clk := clock.NewVirtual()
	defer clk.Stop()
	a, _, rec := wirePair(t, udpnet.Config{
		WireMTU:        1400,
		WireFlushDelay: time.Millisecond,
		Clock:          clk,
	})
	for i := 0; i < 3; i++ {
		if err := a.Send(2, "p", "data", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Virtual time has not advanced, so the delay bound cannot have fired:
	// nothing may be on the wire no matter how much wall time passes.
	time.Sleep(50 * time.Millisecond)
	if c := a.Counters(); c.TxDatagrams != 0 {
		t.Fatalf("TxDatagrams = %d before the virtual flush delay elapsed, want 0", c.TxDatagrams)
	}
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("received %v before the virtual flush delay elapsed", got)
	}
	// Crossing the delay fires the timer (on the clock goroutine) and the
	// three frames leave as one datagram.
	clk.Sleep(2 * time.Millisecond)
	waitMsgs(t, rec, 3)
	if c := a.Counters(); c.TxDatagrams != 1 {
		t.Fatalf("TxDatagrams = %d after flush, want 1", c.TxDatagrams)
	}
}

// TestWireOversizeBypass pins the bypass path: a frame too large for the
// MTU travels alone as a v1 datagram, and doing so does not reorder it
// against the coalesced frames around it.
func TestWireOversizeBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 128, WireFlushDelay: time.Hour})
	big := make([]byte, 200) // body 207 > MTU budget: must bypass
	for i := range big {
		big[i] = 'B'
	}
	if err := a.Send(2, "p", "data", []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "p", "data", big); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "p", "data", []byte("after")); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	got := waitMsgs(t, rec, 3)
	if got[0] != "before" || got[1] != string(big) || got[2] != "after" {
		t.Fatalf("order broken around oversize bypass: lengths %d,%d,%d", len(got[0]), len(got[1]), len(got[2]))
	}
	// "before" seals when the bypass arrives, the bypass is its own v1
	// datagram, "after" flushes explicitly: 3 datagrams.
	if c := a.Counters(); c.TxDatagrams != 3 {
		t.Fatalf("TxDatagrams = %d, want 3", c.TxDatagrams)
	}
}

// TestWireUnbatchedMode pins the WireMTU<0 legacy path: one frame, one
// datagram, one syscall — the benchmark baseline.
func TestWireUnbatchedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: -1})
	for i := 0; i < 5; i++ {
		if err := a.Send(2, "p", "data", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitMsgs(t, rec, 5)
	c := a.Counters()
	if c.TxDatagrams != 5 || c.TxSyscalls != 5 {
		t.Fatalf("TxDatagrams = %d, TxSyscalls = %d, want 5 each on the unbatched path", c.TxDatagrams, c.TxSyscalls)
	}
}

// TestWireCloseFlushes pins graceful shutdown: frames still waiting on
// the delay bound reach the wire before the endpoint's sockets close.
func TestWireCloseFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 1400, WireFlushDelay: time.Hour})
	for i := 0; i < 4; i++ {
		if err := a.Send(2, "p", "data", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got := waitMsgs(t, rec, 4)
	if got[0] != "a" || got[3] != "d" {
		t.Fatalf("got %v", got)
	}
}

// TestWireFrameTooLarge pins the typed oversize error on both send paths.
func TestWireFrameTooLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, _ := wirePair(t, udpnet.Config{})
	if err := a.Send(2, "p", "data", make([]byte, netio.MaxPayload+1)); !errors.Is(err, netio.ErrFrameTooLarge) {
		t.Fatalf("Send oversize: err = %v, want netio.ErrFrameTooLarge", err)
	}
	if err := a.Send(2, "p", "data", make([]byte, netio.MaxPayload)); err != nil {
		t.Fatalf("Send at MaxPayload: %v", err)
	}
}

// TestWireFlushRacesActiveDrainer runs Flush in a tight loop against
// senders whose size seals keep a drainer busy: no Flush call may block
// behind that drainer, and every sender's frames must arrive exactly once
// and in order.
func TestWireFlushRacesActiveDrainer(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	a, _, rec := wirePair(t, udpnet.Config{WireMTU: 256, WireFlushDelay: time.Hour})
	const senders, perSender = 3, 2000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := a.Send(2, "p", "data", []byte(fmt.Sprintf("%d:%05d", s, i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	var flushes int
	var slowest time.Duration
	go func() {
		defer close(done)
		for {
			start := time.Now()
			a.Flush()
			if d := time.Since(start); d > slowest {
				slowest = d
			}
			flushes++
			if rec.len() >= senders*perSender {
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("frames stranded or Flush blocked: %d/%d received", rec.len(), senders*perSender)
	}
	if slowest > time.Second {
		t.Fatalf("slowest Flush took %v", slowest)
	}
	next := make([]int, senders)
	for _, m := range rec.snapshot() {
		var s, i int
		if _, err := fmt.Sscanf(m, "%d:%d", &s, &i); err != nil {
			t.Fatalf("undecodable frame %q", m)
		}
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived when %d was due (lost or reordered)", s, i, next[s])
		}
		next[s]++
	}
	t.Logf("%d Flush calls, slowest %v", flushes, slowest)
}
