// Package experiment contains the scenario builders and runners that
// regenerate the paper's evaluation (Figure 3) and the extension
// experiments catalogued in DESIGN.md. Each runner returns typed rows;
// cmd/morpheus-bench prints them as tables and bench_test.go wraps them as
// Go benchmarks at reduced scale.
package experiment

import (
	"fmt"
	"sync"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/core"
	"morpheus/internal/group"
	"morpheus/internal/stack"
	"morpheus/internal/vnet"
)

// MobileID is the identifier the hybrid scenarios give the PDA. It is the
// highest ID so a fixed node always coordinates, as in the paper's testbed
// where the fixed infrastructure hosts the control roles.
const MobileID appia.NodeID = 100

// counter tracks per-node deliveries.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) add() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// waitFor polls cond until true or timeout; reports success. On a virtual
// clock each poll happens at a quiescent point of the simulation, so the
// value of cond — and therefore the driver's next action — is a
// deterministic function of virtual time.
func waitFor(clk clock.Clock, timeout time.Duration, cond func() bool) bool {
	deadline := clk.Now().Add(timeout)
	for clk.Now().Before(deadline) {
		if cond() {
			return true
		}
		clk.Sleep(2 * time.Millisecond)
	}
	return false
}

// hybridWorld builds the paper's two-segment testbed on the given clock.
func hybridWorld(seed int64, clk *clock.Virtual) *vnet.World {
	w := vnet.NewWorld(seed, clk)
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})
	return w
}

// hybridMembers returns n participants: fixed 1..n-1 plus the mobile.
func hybridMembers(n int) []appia.NodeID {
	ms := make([]appia.NodeID, 0, n)
	for i := 1; i < n; i++ {
		ms = append(ms, appia.NodeID(i))
	}
	return append(ms, MobileID)
}

// rawNode is a participant running a statically configured stack with no
// Morpheus control plane — the paper's "non-adaptive implementation".
type rawNode struct {
	id        appia.NodeID
	vn        *vnet.Node
	sched     *appia.Scheduler
	mgr       *stack.Manager
	delivered counter
}

// startRawNode deploys doc on a fresh node, on the world's clock.
func startRawNode(w *vnet.World, id appia.NodeID, kind vnet.Kind, seg string, members []appia.NodeID, doc *morpheus.Document, name string) (*rawNode, error) {
	vn, err := w.AddNode(id, kind, seg)
	if err != nil {
		return nil, err
	}
	stack.RegisterAllWireEvents(nil)
	n := &rawNode{id: id, vn: vn, sched: appia.NewSchedulerWithClock(w.Clock())}
	n.mgr = stack.NewManager(stack.ManagerConfig{
		Node:      vn,
		Self:      id,
		Scheduler: n.sched,
		Clock:     w.Clock(),
		OnDeliver: func(ev *group.CastEvent) { n.delivered.add() },
		Logf:      func(string, ...any) {},
	})
	if err := n.mgr.Deploy(doc, name, 1, members); err != nil {
		n.sched.Close()
		return nil, err
	}
	return n, nil
}

func (n *rawNode) close() {
	_ = n.mgr.Close()
	n.sched.Close()
}

// send multicasts an anonymous payload.
func (n *rawNode) send(payload []byte) error { return n.mgr.Send(payload) }

// Figure3Row is one point of the paper's Figure 3, plus the companion
// quantities used by the E2 (relay load) and E3 (control overhead)
// experiments.
type Figure3Row struct {
	Nodes int
	// Optimized is the total messages transmitted by the mobile device
	// with the adapted (Mecho) stack — the "optimized" series.
	Optimized uint64
	// NotOptimized is the same count with the plain fan-out stack.
	NotOptimized uint64
	// Breakdown for the optimized run.
	OptimizedData    uint64
	OptimizedControl uint64
	// RelayData is the data traffic the fixed relay absorbed (E2).
	RelayData uint64
	// NotOptimizedData is the data traffic in the baseline.
	NotOptimizedData uint64
}

// Figure3Config parameterises the reproduction.
type Figure3Config struct {
	// Sizes are the group sizes; the paper used 2, 3, 6 and 9.
	Sizes []int
	// Messages per run; the paper used 40 000.
	Messages int
	// Timeout bounds each run.
	Timeout time.Duration
	// Seed drives the virtual network.
	Seed int64
}

func (c *Figure3Config) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 3, 6, 9}
	}
	if c.Messages == 0 {
		c.Messages = 40000
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunFigure3 reproduces the paper's experiment: a hybrid chat group where
// the mobile device sends Messages multicasts, counting every transmission
// the mobile's radio makes (data and control), with and without the Mecho
// adaptation. Each run executes on its own virtual clock, so the full
// counter matrix — control plane included — is bit-reproducible at equal
// seeds; timeouts are virtual time.
func RunFigure3(cfg Figure3Config) ([]Figure3Row, error) {
	cfg.defaults()
	rows := make([]Figure3Row, 0, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		opt, err := runFigure3Optimized(n, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure3 optimized n=%d: %w", n, err)
		}
		base, err := runFigure3Baseline(n, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure3 baseline n=%d: %w", n, err)
		}
		opt.NotOptimized = base.NotOptimized
		opt.NotOptimizedData = base.NotOptimizedData
		rows = append(rows, opt)
	}
	return rows, nil
}

// runFigure3Optimized runs the adapted version: full Morpheus nodes with
// the hybrid policy; measurement starts once Mecho is deployed everywhere.
func runFigure3Optimized(n int, cfg Figure3Config) (Figure3Row, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := hybridWorld(cfg.Seed, clk)
	defer w.Close()
	members := hybridMembers(n)

	var nodes []*morpheus.Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	counters := make(map[appia.NodeID]*counter, n)
	for _, id := range members {
		id := id
		kind, seg := vnet.Fixed, "lan"
		if id == MobileID {
			kind, seg = vnet.Mobile, "wlan"
		}
		c := &counter{}
		counters[id] = c
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: kind, Segments: []string{seg},
			Members:         members,
			Policies:        []morpheus.Policy{core.HybridMechoPolicy{}},
			ContextInterval: 50 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
			OnMessage:       func(from morpheus.NodeID, payload []byte) { c.add() },
		})
		if err != nil {
			return Figure3Row{}, err
		}
		nodes = append(nodes, nd)
	}
	// Wait for the adaptation to Mecho (relay = node 1) on all nodes.
	wantCfg := core.MechoConfigName(1)
	if n == 2 {
		// Two nodes: one fixed + one mobile is still hybrid; the policy
		// deploys Mecho with the single fixed node as relay.
		wantCfg = core.MechoConfigName(1)
	}
	if !waitFor(clk, cfg.Timeout, func() bool {
		for _, nd := range nodes {
			if nd.ConfigName() != wantCfg {
				return false
			}
		}
		return true
	}) {
		return Figure3Row{}, fmt.Errorf("mecho never deployed on all %d nodes", n)
	}

	var mobile *morpheus.Node
	var relay *morpheus.Node
	for _, nd := range nodes {
		if nd.ID() == MobileID {
			mobile = nd
		}
		if nd.ID() == 1 {
			relay = nd
		}
	}
	mobile.Endpoint().ResetCounters()
	relay.Endpoint().ResetCounters()

	for i := 0; i < cfg.Messages; i++ {
		if err := mobile.Send(mkPayload(i)); err != nil {
			return Figure3Row{}, err
		}
	}
	if !waitFor(clk, cfg.Timeout, func() bool {
		for id, c := range counters {
			_ = id
			if c.get() < cfg.Messages {
				return false
			}
		}
		return true
	}) {
		return Figure3Row{}, fmt.Errorf("optimized n=%d: deliveries incomplete", n)
	}
	mc := mobile.Endpoint().Counters()
	rc := relay.Endpoint().Counters()
	return Figure3Row{
		Nodes:            n,
		Optimized:        mc.TotalTx(),
		OptimizedData:    mc.Tx[appia.ClassData].Msgs,
		OptimizedControl: mc.Tx[appia.ClassControl].Msgs,
		RelayData:        rc.Tx[appia.ClassData].Msgs,
	}, nil
}

// runFigure3Baseline runs the non-adaptive version: the plain stack with no
// Morpheus control plane at all.
func runFigure3Baseline(n int, cfg Figure3Config) (Figure3Row, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := hybridWorld(cfg.Seed+1000, clk)
	defer w.Close()
	members := hybridMembers(n)

	var nodes []*rawNode
	defer func() {
		for _, nd := range nodes {
			nd.close()
		}
	}()
	for _, id := range members {
		kind, seg := vnet.Fixed, "lan"
		if id == MobileID {
			kind, seg = vnet.Mobile, "wlan"
		}
		nd, err := startRawNode(w, id, kind, seg, members, core.PlainConfig(), core.PlainConfigName)
		if err != nil {
			return Figure3Row{}, err
		}
		nodes = append(nodes, nd)
	}
	var mobile *rawNode
	for _, nd := range nodes {
		if nd.id == MobileID {
			mobile = nd
		}
	}
	mobile.vn.ResetCounters()
	for i := 0; i < cfg.Messages; i++ {
		if err := mobile.send(mkPayload(i)); err != nil {
			return Figure3Row{}, err
		}
	}
	if !waitFor(clk, cfg.Timeout, func() bool {
		for _, nd := range nodes {
			if nd.delivered.get() < cfg.Messages {
				return false
			}
		}
		return true
	}) {
		return Figure3Row{}, fmt.Errorf("baseline n=%d: deliveries incomplete", n)
	}
	mc := mobile.vn.Counters()
	return Figure3Row{
		Nodes:            n,
		NotOptimized:     mc.TotalTx(),
		NotOptimizedData: mc.Tx[appia.ClassData].Msgs,
	}, nil
}

// mkPayload builds a chat-sized payload (the paper's chat lines).
func mkPayload(i int) []byte {
	return []byte(fmt.Sprintf("chat line %06d from the pda", i))
}
