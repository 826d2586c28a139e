package mecho

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/group"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
	"morpheus/internal/vnet/vnettest"
)

// hybrid builds 1 mobile (id 10) + nFixed fixed nodes (ids 1..nFixed) with
// the Mecho stack: ptp → mecho → nak → gms. The relay is node 1.
type hybridNode struct {
	id    appia.NodeID
	node  *vnet.Node
	sched *appia.Scheduler
	ch    *appia.Channel

	mu        sync.Mutex
	delivered []string
}

func (h *hybridNode) deliveredList() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make([]string, len(h.delivered))
	copy(cp, h.delivered)
	return cp
}

func buildHybrid(t *testing.T, nFixed int) (mobile *hybridNode, fixed []*hybridNode, clk *clock.Virtual) {
	t.Helper()
	w, clk := vnettest.World(t, 1)
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	group.RegisterWireEvents(nil)

	const mobileID appia.NodeID = 10
	members := []appia.NodeID{mobileID}
	for i := 1; i <= nFixed; i++ {
		members = append(members, appia.NodeID(i))
	}
	members = group.NormalizeMembers(members)

	mk := func(id appia.NodeID, kind vnet.Kind, seg string, mode Mode) *hybridNode {
		vn, err := w.AddNode(id, kind, seg)
		if err != nil {
			t.Fatal(err)
		}
		h := &hybridNode{id: id, node: vn, sched: appia.NewSchedulerWithClock(clk)}
		t.Cleanup(h.sched.Close)
		q, err := appia.NewQoS("mecho-test",
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "d", Logf: t.Logf}),
			MustLayer(Config{Self: id, Mode: mode, Relay: 1, InitialMembers: members}),
			group.NewNakLayer(group.NakConfig{Self: id, InitialMembers: members, NackDelay: 10 * time.Millisecond, StableInterval: 50 * time.Millisecond}),
			group.NewGMSLayer(group.GMSConfig{Self: id, InitialMembers: members, Clock: clk}),
		)
		if err != nil {
			t.Fatal(err)
		}
		h.ch = q.CreateChannel("data", h.sched, appia.WithDeliver(func(ev appia.Event) {
			if c, ok := ev.(*group.CastEvent); ok {
				h.mu.Lock()
				h.delivered = append(h.delivered, string(c.Msg.Bytes()))
				h.mu.Unlock()
			}
		}))
		if err := h.ch.Start(); err != nil {
			t.Fatal(err)
		}
		return h
	}

	mobile = mk(mobileID, vnet.Mobile, "wlan", Wireless)
	for i := 1; i <= nFixed; i++ {
		fixed = append(fixed, mk(appia.NodeID(i), vnet.Fixed, "lan", Wired))
	}
	for _, h := range append([]*hybridNode{mobile}, fixed...) {
		if !h.ch.WaitReady(2 * time.Second) {
			t.Fatal("stack never ready")
		}
	}
	return mobile, fixed, clk
}

func cast(t *testing.T, h *hybridNode, payload string) {
	t.Helper()
	ev := &group.CastEvent{}
	ev.Msg = appia.NewMessage([]byte(payload))
	if err := h.ch.Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
}

func TestMobileSendsSingleUnicastPerCast(t *testing.T) {
	mobile, fixed, clk := buildHybrid(t, 3)
	mobile.node.ResetCounters()

	const k = 20
	for i := 0; i < k; i++ {
		cast(t, mobile, fmt.Sprintf("m%02d", i))
	}
	for _, h := range append(fixed, mobile) {
		h := h
		vnettest.Eventually(t, clk, 5*time.Second, fmt.Sprintf("node %d delivers %d", h.id, k), func() bool {
			return len(h.deliveredList()) == k
		})
	}
	c := mobile.node.Counters()
	if got := c.Tx[appia.ClassData].Msgs; got != k {
		t.Fatalf("mobile sent %d data messages for %d casts; Mecho must send exactly one each", got, k)
	}
}

func TestRelayEchoesToOthers(t *testing.T) {
	mobile, fixed, clk := buildHybrid(t, 3)
	relay := fixed[0] // node 1
	relay.node.ResetCounters()

	cast(t, mobile, "hello")
	for _, h := range fixed {
		h := h
		vnettest.Eventually(t, clk, 3*time.Second, fmt.Sprintf("fixed %d delivers", h.id), func() bool {
			return len(h.deliveredList()) == 1
		})
	}
	// The relay echoed to the two other fixed nodes (not back to the
	// mobile, not to itself).
	c := relay.node.Counters()
	if got := c.Tx[appia.ClassData].Msgs; got != 2 {
		t.Fatalf("relay transmitted %d data messages, want 2 echoes", got)
	}
}

func TestWiredNodeFansOut(t *testing.T) {
	mobile, fixed, clk := buildHybrid(t, 3)
	sender := fixed[1] // wired non-relay
	sender.node.ResetCounters()

	cast(t, sender, "from-wired")
	for _, h := range append(fixed, mobile) {
		h := h
		vnettest.Eventually(t, clk, 3*time.Second, "all deliver wired cast", func() bool {
			return len(h.deliveredList()) == 1
		})
	}
	// Wired mode fans out point-to-point: 3 peers.
	c := sender.node.Counters()
	if got := c.Tx[appia.ClassData].Msgs; got != 3 {
		t.Fatalf("wired sender transmitted %d data messages, want 3", got)
	}
}

func TestMechoReliabilityUnderWlanLoss(t *testing.T) {
	w, clk := vnettest.World(t, 5)
	// Build manually to set wlan loss.
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true, Loss: 0.2})
	group.RegisterWireEvents(nil)
	members := []appia.NodeID{1, 2, 10}

	mk := func(id appia.NodeID, kind vnet.Kind, seg string, mode Mode) *hybridNode {
		vn, err := w.AddNode(id, kind, seg)
		if err != nil {
			t.Fatal(err)
		}
		h := &hybridNode{id: id, node: vn, sched: appia.NewSchedulerWithClock(clk)}
		t.Cleanup(h.sched.Close)
		q, err := appia.NewQoS("q",
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "d", Logf: t.Logf}),
			MustLayer(Config{Self: id, Mode: mode, Relay: 1, InitialMembers: members}),
			group.NewNakLayer(group.NakConfig{Self: id, InitialMembers: members, NackDelay: 10 * time.Millisecond, StableInterval: 40 * time.Millisecond}),
			group.NewGMSLayer(group.GMSConfig{Self: id, InitialMembers: members, Clock: clk}),
		)
		if err != nil {
			t.Fatal(err)
		}
		h.ch = q.CreateChannel("data", h.sched, appia.WithDeliver(func(ev appia.Event) {
			if c, ok := ev.(*group.CastEvent); ok {
				h.mu.Lock()
				h.delivered = append(h.delivered, string(c.Msg.Bytes()))
				h.mu.Unlock()
			}
		}))
		if err := h.ch.Start(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	mobile := mk(10, vnet.Mobile, "wlan", Wireless)
	f1 := mk(1, vnet.Fixed, "lan", Wired)
	f2 := mk(2, vnet.Fixed, "lan", Wired)
	for _, h := range []*hybridNode{mobile, f1, f2} {
		if !h.ch.WaitReady(2 * time.Second) {
			t.Fatal("not ready")
		}
	}

	const k = 30
	for i := 0; i < k; i++ {
		cast(t, mobile, fmt.Sprintf("l%02d", i))
	}
	for _, h := range []*hybridNode{mobile, f1, f2} {
		h := h
		vnettest.Eventually(t, clk, 10*time.Second, fmt.Sprintf("node %d recovers all via relay", h.id), func() bool {
			return len(h.deliveredList()) == k
		})
	}
}

func TestNewLayerValidation(t *testing.T) {
	if _, err := NewLayer(Config{Self: 1, Mode: Wireless}); err == nil {
		t.Fatal("missing relay accepted")
	}
	if _, err := NewLayer(Config{Self: 1, Relay: 2}); err == nil {
		t.Fatal("missing mode accepted")
	}
	if _, err := NewLayer(Config{Self: 1, Mode: Wired, Relay: 2}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Wireless.String() != "wireless" || Wired.String() != "wired" {
		t.Fatal("mode strings")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still format")
	}
}
