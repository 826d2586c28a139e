package epidemic

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
)

type gossipNode struct {
	id        appia.NodeID
	vn        *vnet.Node
	sched     *appia.Scheduler
	ch        *appia.Channel
	mu        sync.Mutex
	delivered []string
}

func (g *gossipNode) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.delivered)
}

// buildGossipCluster runs bare ptp → epidemic stacks (no reliability on
// top) so the raw gossip behaviour is observable. The cluster runs on a
// virtual clock: which receivers a message reaches depends on the order
// in which gossip copies arrive, so coverage is a pure function of the
// seed instead of wall-clock scheduling. Tests wait with clk.Sleep.
func buildGossipCluster(t *testing.T, n, fanout, rounds int) ([]*gossipNode, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	t.Cleanup(clk.Stop)
	w := vnet.NewWorld(6, clk)
	t.Cleanup(func() { _ = w.Close() })
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	group.RegisterWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	var nodes []*gossipNode
	for _, id := range members {
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		g := &gossipNode{id: id, vn: vn, sched: appia.NewSchedulerWithClock(clk)}
		t.Cleanup(g.sched.Close)
		q, err := appia.NewQoS("gossip",
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "g", Logf: t.Logf}),
			NewLayer(Config{Self: id, InitialMembers: members, Fanout: fanout, Rounds: rounds, Seed: int64(id)}),
		)
		if err != nil {
			t.Fatal(err)
		}
		g.ch = q.CreateChannel("data", g.sched, appia.WithDeliver(func(ev appia.Event) {
			if c, ok := ev.(*group.CastEvent); ok {
				g.mu.Lock()
				g.delivered = append(g.delivered, string(c.Msg.Bytes()))
				g.mu.Unlock()
			}
		}))
		if err := g.ch.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, g)
	}
	for _, g := range nodes {
		if !g.ch.WaitReady(2 * time.Second) {
			t.Fatal("never ready")
		}
	}
	return nodes, clk
}

func cast(t *testing.T, g *gossipNode, payload string) {
	t.Helper()
	ev := &group.CastEvent{}
	ev.Msg = appia.NewMessage([]byte(payload))
	if err := g.ch.Insert(ev, appia.Down); err != nil {
		t.Fatal(err)
	}
}

func TestGossipReachesEveryoneLossless(t *testing.T) {
	nodes, clk := buildGossipCluster(t, 12, 3, 5)
	const k = 20
	for i := 0; i < k; i++ {
		cast(t, nodes[0], fmt.Sprintf("g%02d", i))
	}
	// Raw gossip may legitimately miss a straggler, so the assertion below
	// tolerates one.
	clk.Sleep(2 * time.Second)
	reached := 0
	for _, g := range nodes[1:] {
		if g.count() == k {
			reached++
		}
	}
	// With fanout 3 and 5 rounds in a 12-node lossless group, coverage
	// should be total or nearly so.
	if reached < len(nodes)-2 {
		t.Fatalf("only %d of %d receivers got all %d messages", reached, len(nodes)-1, k)
	}
}

func TestGossipDedupes(t *testing.T) {
	nodes, clk := buildGossipCluster(t, 6, 5, 6) // dense gossip: many duplicates on the wire
	cast(t, nodes[0], "once")
	clk.Sleep(200 * time.Millisecond)
	for _, g := range nodes[1:] {
		if g.count() > 1 {
			t.Fatalf("node %d delivered %d copies", g.id, g.count())
		}
	}
}

func TestGossipLoadIsBounded(t *testing.T) {
	nodes, clk := buildGossipCluster(t, 16, 3, 4)
	const k = 30
	for i := 0; i < k; i++ {
		cast(t, nodes[0], fmt.Sprintf("m%02d", i))
	}
	clk.Sleep(400 * time.Millisecond)
	// The sender's per-message cost is Fanout, not n−1.
	senderTx := nodes[0].vn.Counters().TotalTx()
	if senderTx > uint64(k*3) {
		t.Fatalf("sender transmitted %d (> fanout bound %d)", senderTx, k*3)
	}
	if senderTx == 0 {
		t.Fatal("sender transmitted nothing")
	}
}

func TestGossipTTLBoundsPropagation(t *testing.T) {
	// rounds=1: the message reaches at most the sender's fanout peers.
	nodes, clk := buildGossipCluster(t, 12, 2, 1)
	cast(t, nodes[0], "short-lived")
	clk.Sleep(200 * time.Millisecond)
	got := 0
	for _, g := range nodes[1:] {
		got += g.count()
	}
	if got > 2 {
		t.Fatalf("ttl=1 reached %d receivers, fanout is 2", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.fanout() != 3 || c.rounds() != 4 {
		t.Fatalf("defaults: fanout=%d rounds=%d", c.fanout(), c.rounds())
	}
}
