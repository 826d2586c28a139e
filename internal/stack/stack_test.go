package stack

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/clock"
	"morpheus/internal/group"
	"morpheus/internal/vnet"
	"morpheus/internal/vnet/vnettest"
)

// plainDoc composes the standard reliable stack (mirrors core.PlainConfig,
// duplicated here to avoid an import cycle in tests).
func plainDoc() *appiaxml.Document {
	return &appiaxml.Document{Channels: []appiaxml.ChannelSpec{{
		Name: "data",
		Sessions: []appiaxml.SessionSpec{
			{Layer: "transport.ptp"},
			{Layer: "group.fanout"},
			{Layer: "group.nak"},
			{Layer: "group.gms"},
		},
	}}}
}

func mechoDoc(relay appia.NodeID) *appiaxml.Document {
	return &appiaxml.Document{Channels: []appiaxml.ChannelSpec{{
		Name: "data",
		Sessions: []appiaxml.SessionSpec{
			{Layer: "transport.ptp"},
			{Layer: "mecho", Params: []appiaxml.ParamSpec{
				{Name: "relay", Value: fmt.Sprintf("%d", relay)},
			}},
			{Layer: "group.nak"},
			{Layer: "group.gms"},
		},
	}}}
}

type mgrNode struct {
	id        appia.NodeID
	vn        *vnet.Node
	sched     *appia.Scheduler
	mgr       *Manager
	mu        sync.Mutex
	delivered []string
}

func (m *mgrNode) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.delivered)
}

func buildManagers(t *testing.T, n int) ([]*mgrNode, *clock.Virtual) {
	t.Helper()
	w, clk := vnettest.World(t, 12)
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	RegisterAllWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	var nodes []*mgrNode
	for _, id := range members {
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			t.Fatal(err)
		}
		m := &mgrNode{id: id, vn: vn, sched: appia.NewSchedulerWithClock(clk)}
		t.Cleanup(m.sched.Close)
		m.mgr = NewManager(ManagerConfig{
			Node: vn, Self: id, Scheduler: m.sched, Clock: clk,
			OnDeliver: func(ev *group.CastEvent) {
				m.mu.Lock()
				m.delivered = append(m.delivered, string(ev.Msg.Bytes()))
				m.mu.Unlock()
			},
			Logf: func(string, ...any) {},
		})
		if err := m.mgr.Deploy(plainDoc(), "plain", 1, members); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.mgr.Close() })
		nodes = append(nodes, m)
	}
	return nodes, clk
}

// delivered reports whether every node has delivered at least want casts
// within d of virtual time.
func delivered(clk *clock.Virtual, nodes []*mgrNode, want int, d time.Duration) bool {
	deadline := clk.Now().Add(d)
	for clk.Now().Before(deadline) {
		ok := true
		for _, m := range nodes {
			if m.count() < want {
				ok = false
			}
		}
		if ok {
			return true
		}
		clk.Sleep(3 * time.Millisecond)
	}
	return false
}

func TestManagerDeployAndSend(t *testing.T) {
	nodes, clk := buildManagers(t, 3)
	if nodes[0].mgr.Epoch() != 1 || nodes[0].mgr.ConfigName() != "plain" {
		t.Fatalf("epoch=%d config=%q", nodes[0].mgr.Epoch(), nodes[0].mgr.ConfigName())
	}
	if err := nodes[0].mgr.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !delivered(clk, nodes, 1, 5*time.Second) {
		t.Fatal("message never delivered everywhere")
	}
}

func TestManagerSendBeforeDeploy(t *testing.T) {
	w, clk := vnettest.World(t, 1)
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	vn, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	sched := appia.NewSchedulerWithClock(clk)
	t.Cleanup(sched.Close)
	m := NewManager(ManagerConfig{Node: vn, Self: 1, Scheduler: sched, Logf: func(string, ...any) {}})
	if err := m.Send([]byte("x")); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("err = %v", err)
	}
}

// TestManagerReconfigure exercises the full §3.3 procedure across three
// nodes, with traffic before, during and after.
func TestManagerReconfigure(t *testing.T) {
	nodes, clk := buildManagers(t, 3)
	if err := nodes[1].mgr.Send([]byte("pre")); err != nil {
		t.Fatal(err)
	}

	// All nodes reconfigure concurrently (as Core would make them), each
	// from its own clock actor.
	errs := make([]error, len(nodes))
	dones := make([]chan struct{}, len(nodes))
	members := []appia.NodeID{1, 2, 3}
	for i, m := range nodes {
		i, m := i, m
		dones[i] = make(chan struct{})
		clk.Go(func() {
			defer close(dones[i])
			errs[i] = m.mgr.Reconfigure(mechoDoc(1), "mecho", 2, members)
		})
	}
	// Send during the reconfiguration window: must be buffered, not lost.
	if err := nodes[0].mgr.Send([]byte("during")); err != nil {
		t.Fatal(err)
	}
	for _, done := range dones {
		clk.Wait(done)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d reconfigure: %v", i+1, err)
		}
	}
	for _, m := range nodes {
		if m.mgr.Epoch() != 2 || m.mgr.ConfigName() != "mecho" {
			t.Fatalf("node %d: epoch=%d config=%q", m.id, m.mgr.Epoch(), m.mgr.ConfigName())
		}
	}
	if err := nodes[2].mgr.Send([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if delivered(clk, nodes, 3, 10*time.Second) { // pre + during + post
		return
	}
	for _, m := range nodes {
		t.Logf("node %d delivered %v", m.id, m.delivered)
	}
	t.Fatal("messages lost across reconfiguration")
}

func TestManagerStaleEpochRejected(t *testing.T) {
	nodes, _ := buildManagers(t, 2)
	err := nodes[0].mgr.Reconfigure(plainDoc(), "plain", 1, []appia.NodeID{1, 2})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v", err)
	}
}

func TestStandardRegistryNames(t *testing.T) {
	reg := NewStandardRegistry()
	want := []string{
		"epidemic", "fec", "group.causal", "group.fanout", "group.gms",
		"group.nak", "group.total", "mecho", "transport.nativemcast", "transport.ptp",
	}
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestMechoModeResolution(t *testing.T) {
	w, _ := vnettest.World(t, 2)
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	fixedN, err := w.AddNode(1, vnet.Fixed, "lan")
	if err != nil {
		t.Fatal(err)
	}
	mobileN, err := w.AddNode(2, vnet.Mobile, "wlan")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		mode  string
		self  appia.NodeID
		node  *vnet.Node
		relay appia.NodeID
		want  string
		bad   bool
	}{
		{mode: "wireless", self: 2, node: mobileN, relay: 1, want: "wireless"},
		{mode: "wired", self: 1, node: fixedN, relay: 1, want: "wired"},
		{mode: "auto", self: 1, node: fixedN, relay: 1, want: "wired"},     // the relay echoes
		{mode: "auto", self: 2, node: mobileN, relay: 1, want: "wireless"}, // mobile non-relay
		{mode: "auto", self: 1, node: fixedN, relay: 9, want: "wired"},     // fixed non-relay
		{mode: "bogus", self: 1, node: fixedN, relay: 1, bad: true},
	}
	for _, tc := range cases {
		env := &appiaxml.Env{Self: tc.self, Node: tc.node}
		got, err := resolveMechoMode(tc.mode, env, tc.relay)
		if tc.bad {
			if err == nil {
				t.Fatalf("mode %q accepted", tc.mode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("mode %q: %v", tc.mode, err)
		}
		if got.String() != tc.want {
			t.Fatalf("mode %q self %d: got %v want %v", tc.mode, tc.self, got, tc.want)
		}
	}
}
