package morpheus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus/internal/clock"
	"morpheus/internal/cocaditem"
	"morpheus/internal/core"
	"morpheus/internal/vnet"
	"morpheus/internal/vnet/vnettest"
)

// collector gathers delivered payloads thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collector) add(from NodeID, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, string(payload))
}

func (c *collector) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([]string, len(c.msgs))
	copy(cp, c.msgs)
	return cp
}

// hybridWorld builds the paper's testbed: a wired LAN and a wireless cell.
func hybridWorld(t *testing.T, seed int64) (*vnet.World, *clock.Virtual) {
	t.Helper()
	w, clk := vnettest.World(t, seed)
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	return w, clk
}

func TestNodeStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	w, _ := hybridWorld(t, 1)
	if _, err := Start(Config{World: w}); err != ErrNoMembers {
		t.Fatalf("err = %v, want ErrNoMembers", err)
	}
}

func TestPlainGroupMessaging(t *testing.T) {
	w, clk := hybridWorld(t, 2)
	members := []NodeID{1, 2, 3}
	var cols [3]collector
	var nodes []*Node
	for i, id := range members {
		i := i
		n, err := Start(Config{
			World: w, ID: id, Kind: Fixed, Members: members,
			OnMessage: cols[i].add,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	if err := nodes[0].Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	for i := range cols {
		i := i
		vnettest.Eventually(t, clk, 5*time.Second, fmt.Sprintf("node %d delivers both", i+1), func() bool {
			return len(cols[i].list()) == 2
		})
	}
	if nodes[0].ConfigName() != core.PlainConfigName {
		t.Fatalf("config = %q", nodes[0].ConfigName())
	}
}

// TestHybridAdaptationDeploysMecho is the paper's core scenario: a chat
// group of fixed PCs and one PDA. The coordinator must detect the hybrid
// context (via Cocaditem's device-class topic) and reconfigure everyone
// from the plain fan-out stack to Mecho, after which the mobile sends one
// unicast per multicast.
func TestHybridAdaptationDeploysMecho(t *testing.T) {
	w, clk := hybridWorld(t, 3)
	members := []NodeID{1, 2, 10}
	var reconfigured sync.Map
	var cols [3]collector
	mk := func(i int, id NodeID, kind Kind) *Node {
		n, err := Start(Config{
			World: w, ID: id, Kind: kind, Members: members,
			Policies:        []Policy{core.HybridMechoPolicy{}},
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
			OnMessage:       cols[i].add,
			OnReconfigured: func(epoch uint64, name string, took time.Duration) {
				reconfigured.Store(epoch, name)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	n1 := mk(0, 1, Fixed)
	n2 := mk(1, 2, Fixed)
	mob := mk(2, 10, Mobile)
	_ = n2

	// The coordinator (node 1) should detect the hybrid group and deploy
	// Mecho with a fixed relay on every node.
	for _, n := range []*Node{n1, n2, mob} {
		n := n
		vnettest.Eventually(t, clk, 10*time.Second, fmt.Sprintf("node %d deploys mecho", n.ID()), func() bool {
			return n.ConfigName() == core.MechoConfigName(1) && n.Epoch() >= 2
		})
	}

	// After adaptation: mobile multicasts cost exactly one transmission.
	mob.VNode().ResetCounters()
	const k = 10
	for i := 0; i < k; i++ {
		if err := mob.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range cols {
		i := i
		vnettest.Eventually(t, clk, 10*time.Second, fmt.Sprintf("node %d delivers %d post-adaptation", i, k), func() bool {
			return len(cols[i].list()) >= k
		})
	}
	tx := mob.VNode().Counters().Tx[ClassData].Msgs
	if tx != k {
		t.Fatalf("mobile transmitted %d data messages for %d casts after Mecho; want exactly %d", tx, k, k)
	}
}

// TestMessagesSurviveReconfiguration checks the transparency promise:
// payloads sent while the stack is being replaced are buffered and arrive.
func TestMessagesSurviveReconfiguration(t *testing.T) {
	w, clk := hybridWorld(t, 4)
	members := []NodeID{1, 2, 10}
	var cols [3]collector
	var nodes []*Node
	kinds := []Kind{Fixed, Fixed, Mobile}
	for i, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: kinds[i], Members: members,
			Policies:        []Policy{core.HybridMechoPolicy{}},
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
			OnMessage:       cols[i].add,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	// Fire continuously across the adaptation window.
	const k = 60
	for i := 0; i < k; i++ {
		if err := nodes[0].Send([]byte(fmt.Sprintf("c%03d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(5 * time.Millisecond)
	}
	vnettest.Eventually(t, clk, 15*time.Second, "reconfiguration happened", func() bool {
		return nodes[0].Epoch() >= 2
	})
	for i := range cols {
		i := i
		vnettest.Eventually(t, clk, 15*time.Second, fmt.Sprintf("node %d delivered all %d across reconfig", i, k), func() bool {
			return len(cols[i].list()) >= k
		})
	}
}

// TestErrorRecoveryPolicySwitchesToFEC drives the §2 motivation end to end:
// rising measured loss flips the group from ARQ to FEC.
func TestErrorRecoveryPolicySwitchesToFEC(t *testing.T) {
	w, clk := vnettest.World(t, 5)
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})
	members := []NodeID{1, 2}

	// The loss "measurement" is a context retriever reading a shared
	// variable, standing in for NIC error counters.
	var lossMu sync.Mutex
	loss := 0.0
	setLoss := func(v float64) {
		lossMu.Lock()
		loss = v
		lossMu.Unlock()
	}
	lossRetriever := cocaditem.FuncRetriever{
		TopicName: cocaditem.TopicLinkLoss,
		Fn: func() (float64, string) {
			lossMu.Lock()
			defer lossMu.Unlock()
			return loss, ""
		},
	}

	var nodes []*Node
	for _, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: Fixed, Members: members,
			InitialConfig:     core.ArqConfig(),
			InitialConfigName: core.ArqConfigName,
			Policies:          []Policy{core.ErrorRecoveryPolicy{}},
			Retrievers:        []cocaditem.Retriever{lossRetriever},
			ContextInterval:   30 * time.Millisecond,
			EvalInterval:      50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	// Low loss: stays ARQ.
	clk.Sleep(300 * time.Millisecond)
	if got := nodes[0].ConfigName(); got != core.ArqConfigName {
		t.Fatalf("low loss config = %q", got)
	}
	// High loss: must switch to FEC.
	setLoss(0.15)
	for _, n := range nodes {
		n := n
		vnettest.Eventually(t, clk, 10*time.Second, "switch to fec", func() bool {
			return n.ConfigName() == core.FecConfigName
		})
	}
	// Loss subsides: back to ARQ (hysteresis band crossed).
	setLoss(0.0)
	for _, n := range nodes {
		n := n
		vnettest.Eventually(t, clk, 10*time.Second, "switch back to arq", func() bool {
			return n.ConfigName() == core.ArqConfigName
		})
	}
}

func TestContextDissemination(t *testing.T) {
	w, clk := hybridWorld(t, 6)
	members := []NodeID{1, 10}
	n1, err := Start(Config{
		World: w, ID: 1, Kind: Fixed, Members: members,
		ContextInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n1.Close() })
	mob, err := Start(Config{
		World: w, ID: 10, Kind: Mobile, Members: members,
		Energy:          func() *vnet.EnergyConfig { e := vnet.DefaultMobileEnergy(); return &e }(),
		ContextInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mob.Close() })

	// Node 1 must learn, through Cocaditem, that node 10 is mobile and
	// what its battery level is.
	vnettest.Eventually(t, clk, 5*time.Second, "remote device class disseminated", func() bool {
		sm, ok := n1.Context().Latest(cocaditem.TopicDeviceClass, 10)
		return ok && sm.Str == "mobile"
	})
	vnettest.Eventually(t, clk, 5*time.Second, "remote battery disseminated", func() bool {
		sm, ok := n1.Context().Latest(cocaditem.TopicBattery, 10)
		return ok && sm.Num > 0.9
	})
	// Subscription API delivers matching samples.
	got := make(chan struct{}, 1)
	n1.Context().Subscribe(cocaditem.TopicBattery, func(s Sample) {
		if s.Node == 10 {
			select {
			case got <- struct{}{}:
			default:
			}
		}
	})
	if !clk.WaitTimeout(got, 5*time.Second) {
		t.Fatal("subscriber never notified")
	}
}

// TestControlChannelSurvivesMemberCrash: the control group evicts a dead
// node and adaptation continues among survivors.
func TestControlChannelSurvivesMemberCrash(t *testing.T) {
	w, clk := hybridWorld(t, 7)
	members := []NodeID{1, 2, 3}
	var nodes []*Node
	for _, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: Fixed, Members: members,
			Heartbeat:    20 * time.Millisecond,
			SuspectAfter: 120 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes = append(nodes, n)
	}
	clk.Sleep(200 * time.Millisecond)
	nodes[2].VNode().SetDown(true)
	// Survivors keep messaging.
	var delivered int
	var mu sync.Mutex
	done := make(chan struct{})
	nodes[1].Context().Subscribe(cocaditem.TopicDeviceClass, func(s Sample) {
		mu.Lock()
		delivered++
		if delivered > 3 {
			select {
			case <-done:
			default:
				close(done)
			}
		}
		mu.Unlock()
	})
	if !clk.WaitTimeout(done, 10*time.Second) {
		t.Fatal("context flow stopped after member crash")
	}
}

// TestRelayCrashFailsOver is the strongest adaptation scenario: the fixed
// node relaying for the mobile crashes. The control group's failure
// detector evicts it, a new control coordinator takes over if needed, the
// hybrid policy re-evaluates against the surviving membership, and the
// group redeploys Mecho with the next fixed node as relay — with the
// crashed node's stale data channel flushed around it.
func TestRelayCrashFailsOver(t *testing.T) {
	w, clk := hybridWorld(t, 11)
	members := []NodeID{1, 2, 10}
	kinds := map[NodeID]Kind{1: Fixed, 2: Fixed, 10: Mobile}
	var cols [3]collector
	nodes := make(map[NodeID]*Node, 3)
	for i, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: kinds[id], Members: members,
			Policies:        []Policy{core.HybridMechoPolicy{}},
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
			Heartbeat:       20 * time.Millisecond,
			SuspectAfter:    150 * time.Millisecond,
			QuiesceTimeout:  3 * time.Second,
			OnMessage:       cols[i].add,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[id] = n
	}
	// Phase 1: adaptation picks node 1 as relay.
	for _, n := range nodes {
		n := n
		vnettest.Eventually(t, clk, 10*time.Second, "initial mecho", func() bool {
			return n.ConfigName() == core.MechoConfigName(1)
		})
	}
	// Phase 2: the relay dies.
	nodes[1].VNode().SetDown(true)
	for _, id := range []NodeID{2, 10} {
		n := nodes[id]
		vnettest.Eventually(t, clk, 20*time.Second, fmt.Sprintf("node %d fails over to relay 2", id), func() bool {
			return n.ConfigName() == core.MechoConfigName(2)
		})
	}
	// Phase 3: traffic flows on the failed-over stack, and the mobile
	// still pays one transmission per cast.
	mob := nodes[10]
	mob.VNode().ResetCounters()
	before2 := len(cols[1].list())
	const k = 5
	for i := 0; i < k; i++ {
		if err := mob.Send([]byte(fmt.Sprintf("after-failover-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vnettest.Eventually(t, clk, 10*time.Second, "survivor delivers post-failover casts", func() bool {
		return len(cols[1].list()) >= before2+k
	})
	if tx := mob.VNode().Counters().Tx[ClassData].Msgs; tx != k {
		t.Fatalf("mobile transmitted %d data messages for %d casts after failover", tx, k)
	}
}

func TestNodeAccessors(t *testing.T) {
	w, _ := hybridWorld(t, 8)
	n, err := Start(Config{World: w, ID: 1, Kind: Fixed, Members: []NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	if n.ID() != 1 {
		t.Fatal("ID")
	}
	if n.VNode() == nil || n.Context() == nil || n.Manager() == nil {
		t.Fatal("accessors returned nil")
	}
	if n.Epoch() != 1 {
		t.Fatalf("initial epoch = %d", n.Epoch())
	}
	if err := n.Send([]byte("self")); err != nil {
		t.Fatal(err)
	}
}
