package cocaditem

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

// ctxNode runs a minimal control stack: ptp → fanout → nak → gms → cocaditem.
type ctxNode struct {
	id    appia.NodeID
	node  *vnet.Node
	sched *appia.Scheduler
	ch    *appia.Channel
	sess  *Session
}

func buildCtxCluster(t *testing.T, n int, mkRetrievers func(id appia.NodeID, vn *vnet.Node) []Retriever, interval time.Duration, onChange bool) ([]*ctxNode, *clock.Virtual) {
	t.Helper()
	w, clk := vnettest.World(t, 4)
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	group.RegisterWireEvents(nil)
	RegisterWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	var nodes []*ctxNode
	for _, id := range members {
		kind, seg := vnet.Fixed, "lan"
		if id == members[n-1] && n > 1 {
			kind, seg = vnet.Mobile, "wlan"
		}
		vn, err := w.AddNode(id, kind, seg)
		if err != nil {
			t.Fatal(err)
		}
		cn := &ctxNode{id: id, node: vn, sched: appia.NewSchedulerWithClock(clk)}
		t.Cleanup(cn.sched.Close)
		q, err := appia.NewQoS("ctl",
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "ctl", Logf: t.Logf}),
			group.NewFanoutLayer(group.FanoutConfig{Self: id, InitialMembers: members}),
			group.NewNakLayer(group.NakConfig{Self: id, InitialMembers: members, NackDelay: 10 * time.Millisecond, StableInterval: 40 * time.Millisecond}),
			group.NewGMSLayer(group.GMSConfig{Self: id, InitialMembers: members, Clock: clk}),
			NewLayer(Config{
				Self:            id,
				Clock:           clk,
				Interval:        interval,
				Retrievers:      mkRetrievers(id, vn),
				PublishOnChange: onChange,
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		cn.ch = q.CreateChannel("ctl", cn.sched)
		if err := cn.ch.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, cn)
	}
	for _, cn := range nodes {
		if !cn.ch.WaitReady(2 * time.Second) {
			t.Fatal("stack never ready")
		}
		s, ok := cn.ch.SessionFor("cocaditem").(*Session)
		if !ok {
			t.Fatal("cocaditem session missing")
		}
		cn.sess = s
	}
	return nodes, clk
}

func TestDisseminatesToAllNodes(t *testing.T) {
	nodes, clk := buildCtxCluster(t, 3, func(id appia.NodeID, vn *vnet.Node) []Retriever {
		return []Retriever{DeviceClassRetriever(vn)}
	}, 20*time.Millisecond, false)

	// Every node must learn every other node's device class.
	for _, cn := range nodes {
		cn := cn
		vnettest.Eventually(t, clk, 5*time.Second, fmt.Sprintf("node %d sees all classes", cn.id), func() bool {
			for _, other := range nodes {
				if _, ok := cn.sess.Latest(TopicDeviceClass, other.id); !ok {
					return false
				}
			}
			return true
		})
	}
	// Node 3 is the mobile one in this cluster layout.
	sm, ok := nodes[0].sess.Latest(TopicDeviceClass, 3)
	if !ok || sm.Str != "mobile" {
		t.Fatalf("node1's view of node3 = %+v (ok=%v)", sm, ok)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	nodes, clk := buildCtxCluster(t, 2, func(id appia.NodeID, vn *vnet.Node) []Retriever {
		return []Retriever{BatteryRetriever(vn)}
	}, 20*time.Millisecond, false)
	vnettest.Eventually(t, clk, 5*time.Second, "battery known", func() bool {
		snap := nodes[0].sess.Snapshot()
		return len(snap[TopicBattery]) == 2
	})
	snap := nodes[0].sess.Snapshot()
	// Mutating the snapshot must not affect the store.
	delete(snap[TopicBattery], 1)
	if _, ok := nodes[0].sess.Latest(TopicBattery, 1); !ok {
		t.Fatal("snapshot mutation leaked into the store")
	}
}

func TestSubscribersNotified(t *testing.T) {
	nodes, clk := buildCtxCluster(t, 2, func(id appia.NodeID, vn *vnet.Node) []Retriever {
		return []Retriever{DeviceClassRetriever(vn)}
	}, 15*time.Millisecond, false)
	got := make(chan struct{}, 1)
	nodes[0].sess.Subscribe(TopicDeviceClass, func(s Sample) {
		select {
		case got <- struct{}{}:
		default:
		}
	})
	if !clk.WaitTimeout(got, 5*time.Second) {
		t.Fatal("subscriber never notified")
	}
	// Wildcard subscription.
	all := make(chan struct{}, 1)
	nodes[0].sess.Subscribe("", func(s Sample) {
		select {
		case all <- struct{}{}:
		default:
		}
	})
	if !clk.WaitTimeout(all, 5*time.Second) {
		t.Fatal("wildcard subscriber never notified")
	}
}

func TestPublishOnChangeSuppressesSteadyState(t *testing.T) {
	val := 0.5
	var mu sync.Mutex
	nodes, clk := buildCtxCluster(t, 2, func(id appia.NodeID, vn *vnet.Node) []Retriever {
		return []Retriever{FuncRetriever{TopicName: "x", Fn: func() (float64, string) {
			mu.Lock()
			defer mu.Unlock()
			return val, ""
		}}}
	}, 10*time.Millisecond, true)

	vnettest.Eventually(t, clk, 5*time.Second, "initial publish", func() bool {
		_, ok := nodes[1].sess.Latest("x", 1)
		return ok
	})
	// Count publishes over a quiet window: only keepalives may appear
	// (every 10th tick), far fewer than every tick.
	before := nodes[0].node.Counters().Tx["control"].Msgs
	clk.Sleep(200 * time.Millisecond)
	after := nodes[0].node.Counters().Tx["control"].Msgs
	// 200ms at 10ms interval = 20 ticks. Unsuppressed would publish ~20
	// messages for this topic alone (plus stability); with suppression we
	// expect roughly 2 keepalives + stability gossip.
	if after-before > 15 {
		t.Fatalf("steady-state control traffic too high: %d msgs in 200ms", after-before)
	}
	// A change must propagate promptly.
	mu.Lock()
	val = 0.9
	mu.Unlock()
	vnettest.Eventually(t, clk, 5*time.Second, "change propagates", func() bool {
		sm, ok := nodes[1].sess.Latest("x", 1)
		return ok && sm.Num > 0.8
	})
}

func TestBuiltinRetrievers(t *testing.T) {
	w, _ := vnettest.World(t, 9)
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	vn, err := w.AddNode(1, vnet.Mobile, "wlan")
	if err != nil {
		t.Fatal(err)
	}
	vn.SetEnergy(vnet.EnergyConfig{CapacityJ: 10, TxPerMsgJ: 1})

	if num, str := DeviceClassRetriever(vn).Retrieve(); num != 1 || str != "mobile" {
		t.Fatalf("device class = %v %q", num, str)
	}
	if num, _ := BatteryRetriever(vn).Retrieve(); num != 1 {
		t.Fatalf("full battery = %v", num)
	}
	if _, err := w.AddNode(2, vnet.Fixed, "wlan"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := vn.Send(2, "p", "data", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if num, _ := BatteryRetriever(vn).Retrieve(); num != 0.5 {
		t.Fatalf("half battery = %v", num)
	}
}
