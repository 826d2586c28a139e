package transport

import (
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/vnet"
	"morpheus/internal/vnet/vnettest"
)

// pingEv is a registered wire event for tests.
type pingEv struct{ appia.SendableEvent }

func reg(t *testing.T) *appia.EventKindRegistry {
	t.Helper()
	r := appia.NewEventKindRegistry()
	r.Register("test.ping", func() appia.Sendable { return &pingEv{} })
	return r
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	r := reg(t)
	ev := &pingEv{}
	ev.Msg = appia.NewMessage([]byte("payload"))
	ev.Msg.PushUvarint(77)

	wire, err := Marshal(r, "chan-x", ev)
	if err != nil {
		t.Fatal(err)
	}
	// The original message must be restored after marshalling.
	if v, err := ev.Msg.PopUvarint(); err != nil || v != 77 {
		t.Fatalf("original message corrupted: %d, %v", v, err)
	}

	chName, out, err := Unmarshal(r, wire)
	if err != nil {
		t.Fatal(err)
	}
	if chName != "chan-x" {
		t.Fatalf("channel = %q", chName)
	}
	p, ok := out.(*pingEv)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if v, err := p.Msg.PopUvarint(); err != nil || v != 77 {
		t.Fatalf("header = %d, %v", v, err)
	}
	if string(p.Msg.Bytes()) != "payload" {
		t.Fatalf("payload = %q", p.Msg.Bytes())
	}
}

// TestCodecAllocations pins the allocation-free parts of the frame codec:
// marshalling into a buffer with room allocates nothing, and splitting off
// the channel and kind names, looking the channel up and resolving the
// kind allocates only the event.
func TestCodecAllocations(t *testing.T) {
	r := reg(t)
	ev := &pingEv{}
	ev.Msg = appia.NewMessage([]byte("payload"))
	buf := make([]byte, 0, 64)
	var wire []byte
	if n := testing.AllocsPerRun(100, func() {
		wire, _ = MarshalAppend(buf[:0], r, "chan-x", ev)
	}); n != 0 {
		t.Fatalf("MarshalAppend: %v allocs, want 0", n)
	}
	channels := map[string]bool{"chan-x": true}
	if n := testing.AllocsPerRun(100, func() {
		chName, rest, err := takeName(wire)
		if err != nil || !channels[string(chName)] {
			t.Fatalf("channel %q: %v", chName, err)
		}
		kind, _, err := takeName(rest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.NewFromWire(kind); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("decoding the names: %v allocs, want 1 (the event)", n)
	}
}

func TestMarshalUnregistered(t *testing.T) {
	r := appia.NewEventKindRegistry()
	ev := &pingEv{}
	if _, err := Marshal(r, "c", ev); err == nil {
		t.Fatal("marshal of unregistered type succeeded")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	r := reg(t)
	if _, _, err := Unmarshal(r, []byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage decoded")
	}
}

// buildPair wires two single-layer (ptp only) channels over a vnet LAN, on
// a fresh virtual clock whose run token the test goroutine holds.
func buildPair(t *testing.T) (a, b *appia.Channel, deliveredB *[]appia.Event, mu *sync.Mutex, clk *clock.Virtual) {
	t.Helper()
	r := reg(t)
	w, clk := vnettest.World(t, 2)
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	na, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := w.AddNode(2, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}

	mu = &sync.Mutex{}
	deliveredB = &[]appia.Event{}

	mkChan := func(n *vnet.Node, sink bool) *appia.Channel {
		q, err := appia.NewQoS("q", NewPTPLayer(Config{Node: n, Port: "t", Registry: r, Logf: t.Logf}))
		if err != nil {
			t.Fatal(err)
		}
		sched := appia.NewSchedulerWithClock(clk)
		t.Cleanup(sched.Close)
		var opts []appia.ChannelOption
		if sink {
			opts = append(opts, appia.WithDeliver(func(ev appia.Event) {
				mu.Lock()
				defer mu.Unlock()
				*deliveredB = append(*deliveredB, ev)
			}))
		}
		ch := q.CreateChannel("data", sched, opts...)
		if err := ch.Start(); err != nil {
			t.Fatal(err)
		}
		if !ch.WaitReady(2 * time.Second) {
			t.Fatal("channel never became ready")
		}
		return ch
	}
	a = mkChan(na, false)
	b = mkChan(nb, true)
	return a, b, deliveredB, mu, clk
}

func TestPTPSendsAndDelivers(t *testing.T) {
	a, _, deliveredB, mu, clk := buildPair(t)
	ev := &pingEv{}
	ev.Dest = 2
	ev.Msg = appia.NewMessage([]byte("hi"))
	if err := a.Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
	// A zero-latency hop takes no virtual time: once the clock has moved
	// at all, the frame has been delivered.
	clk.Sleep(time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(*deliveredB) != 1 {
		t.Fatalf("delivered %d events, want 1", len(*deliveredB))
	}
	got, ok := (*deliveredB)[0].(*pingEv)
	if !ok {
		t.Fatalf("delivered %T", (*deliveredB)[0])
	}
	if got.SendableBase().Source != 1 {
		t.Fatalf("source = %d", got.SendableBase().Source)
	}
	if string(got.Msg.Bytes()) != "hi" {
		t.Fatalf("payload = %q", got.Msg.Bytes())
	}
}

func TestPTPDropsUnaddressed(t *testing.T) {
	a, _, deliveredB, mu, clk := buildPair(t)
	ev := &pingEv{}
	ev.Msg = appia.NewMessage([]byte("nowhere"))
	if err := a.Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(*deliveredB) != 0 {
		t.Fatal("unaddressed event was transmitted")
	}
}
