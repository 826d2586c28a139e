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

// buildMcastTrio wires three nodes with ptp + native multicast stacks on a
// multicast-capable segment, on a fresh virtual clock whose run token the
// test goroutine holds.
func buildMcastTrio(t *testing.T) (chans []*appia.Channel, nodes []*vnet.Node, got *[3][]string, mu *sync.Mutex, clk *clock.Virtual) {
	t.Helper()
	r := reg(t)
	w, clk := vnettest.World(t, 8)
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})

	mu = &sync.Mutex{}
	got = &[3][]string{}
	for i := 0; i < 3; i++ {
		i := i
		vn, err := w.AddNode(vnet.NodeID(i+1), vnet.Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, vn)
		q, err := appia.NewQoS("m",
			NewPTPLayer(Config{Node: vn, Port: "m", Registry: r, Logf: t.Logf}),
			NewNativeMulticastLayer(NativeMulticastConfig{
				Config:  Config{Node: vn, Port: "m", Registry: r, Logf: t.Logf},
				Segment: "lan",
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		sched := appia.NewSchedulerWithClock(clk)
		t.Cleanup(sched.Close)
		ch := q.CreateChannel("data", sched, appia.WithDeliver(func(ev appia.Event) {
			if p, ok := ev.(*pingEv); ok {
				mu.Lock()
				got[i] = append(got[i], string(p.Msg.Bytes()))
				mu.Unlock()
			}
		}))
		if err := ch.Start(); err != nil {
			t.Fatal(err)
		}
		if !ch.WaitReady(2 * time.Second) {
			t.Fatal("not ready")
		}
		chans = append(chans, ch)
	}
	return chans, nodes, got, mu, clk
}

func TestNativeMulticastDelivery(t *testing.T) {
	chans, nodes, got, mu, clk := buildMcastTrio(t)
	ev := &pingEv{}
	ev.Msg = appia.NewMessage([]byte("to-all"))
	if err := chans[0].Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
	// Zero-latency frames and the stacks' work take no virtual time: once
	// the clock has moved at all, every delivery has happened.
	clk.Sleep(time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got[1]) != 1 || len(got[2]) != 1 {
		t.Fatalf("deliveries: %v / %v", got[1], got[2])
	}
	// One transmission, not n−1.
	if tx := nodes[0].Counters().TotalTx(); tx != 1 {
		t.Fatalf("sender transmitted %d frames, want 1", tx)
	}
}

func TestNativeMulticastPassesAddressedTraffic(t *testing.T) {
	chans, nodes, got, mu, clk := buildMcastTrio(t)
	ev := &pingEv{}
	ev.Dest = 3
	ev.Msg = appia.NewMessage([]byte("direct"))
	if err := chans[0].Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got[2]) != 1 {
		t.Fatal("addressed frame never delivered")
	}
	if len(got[1]) != 0 {
		t.Fatal("unicast leaked to a third party")
	}
	if tx := nodes[0].Counters().TotalTx(); tx != 1 {
		t.Fatalf("tx = %d", tx)
	}
}
