package experiment

import (
	"fmt"
	"sync"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/clock"
	"morpheus/internal/core"
	"morpheus/internal/epidemic"
	"morpheus/internal/group"
	"morpheus/internal/transport"
	"morpheus/internal/vnet"
)

// --- E4: reconfiguration latency ------------------------------------------

// ReconfigRow reports the cost of one group-wide reconfiguration.
type ReconfigRow struct {
	Nodes   int
	Latency time.Duration
}

// RunReconfigLatency measures, per group size, the virtual time from the
// coordinator's decision to the last member's deployment acknowledgement —
// the cost of the §3.3 procedure (trigger view change, flush to
// quiescence, ship XML, rebuild, resume).
func RunReconfigLatency(sizes []int, timeout time.Duration, seed int64) ([]ReconfigRow, error) {
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	rows := make([]ReconfigRow, 0, len(sizes))
	for _, n := range sizes {
		took, err := runReconfigLatency(n, timeout, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ReconfigRow{Nodes: n, Latency: took})
	}
	return rows, nil
}

func runReconfigLatency(n int, timeout time.Duration, seed int64) (time.Duration, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := hybridWorld(seed+int64(n), clk)
	defer w.Close()
	// Zero-latency links take no virtual time, so a reconfiguration over
	// hybridWorld's segments would measure 0 s: E4's links get a wired
	// and a wireless propagation delay.
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true, Latency: time.Millisecond})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true, Latency: 5 * time.Millisecond})
	members := hybridMembers(n)

	var mu sync.Mutex
	took := time.Duration(-1) // the first completed reconfiguration's latency
	var nodes []*morpheus.Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		kind, seg := vnet.Fixed, "lan"
		if id == MobileID {
			kind, seg = vnet.Mobile, "wlan"
		}
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: kind, Segments: []string{seg},
			Members:         members,
			Policies:        []morpheus.Policy{core.HybridMechoPolicy{}},
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
			OnReconfigured: func(epoch uint64, name string, d time.Duration) {
				mu.Lock()
				if took < 0 {
					took = d
				}
				mu.Unlock()
			},
		})
		if err != nil {
			return 0, err
		}
		nodes = append(nodes, nd)
	}
	completed := waitFor(clk, timeout, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return took >= 0
	})
	if !completed {
		return 0, fmt.Errorf("reconfig latency n=%d: never completed", n)
	}
	mu.Lock()
	defer mu.Unlock()
	return took, nil
}

// --- E5: multicast strategies at scale -------------------------------------

// StrategyRow compares dissemination strategies for one group size.
type StrategyRow struct {
	Nodes         int
	Strategy      string
	SenderTx      uint64  // transmissions by the multicast source
	MaxNodeTx     uint64  // worst per-node transmission load
	TotalTx       uint64  // network-wide transmissions
	DeliveryRatio float64 // delivered / (messages × (n−1))
}

// StrategyConfig parameterises the sweep.
type StrategyConfig struct {
	Sizes    []int
	Messages int
	Loss     float64
	Fanout   int
	Rounds   int
	Timeout  time.Duration
	Seed     int64
}

func (c *StrategyConfig) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{8, 16, 32}
	}
	if c.Messages == 0 {
		c.Messages = 200
	}
	if c.Fanout == 0 {
		c.Fanout = 3
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
}

// RunMulticastStrategies compares the three best-effort bottoms the paper's
// introduction discusses — point-to-point fan-out, native multicast, and
// epidemic dissemination — on per-node load and raw (unrepaired) coverage.
func RunMulticastStrategies(cfg StrategyConfig) ([]StrategyRow, error) {
	cfg.defaults()
	var rows []StrategyRow
	for _, n := range cfg.Sizes {
		for _, strat := range []string{"fanout", "nativemcast", "epidemic"} {
			row, err := runStrategy(n, strat, cfg)
			if err != nil {
				return nil, fmt.Errorf("strategy %s n=%d: %w", strat, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// bebNode is a node running only transport + one best-effort bottom.
type bebNode struct {
	id        appia.NodeID
	vn        *vnet.Node
	sched     *appia.Scheduler
	ch        *appia.Channel
	delivered counter
}

func runStrategy(n int, strat string, cfg StrategyConfig) (StrategyRow, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := vnet.NewWorld(cfg.Seed+int64(n), clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true, Loss: cfg.Loss})
	group.RegisterWireEvents(nil)

	members := make([]appia.NodeID, n)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	var nodes []*bebNode
	defer func() {
		for _, nd := range nodes {
			_ = nd.ch.Close()
			nd.sched.Close()
		}
	}()
	for _, id := range members {
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			return StrategyRow{}, err
		}
		nd := &bebNode{id: id, vn: vn, sched: appia.NewSchedulerWithClock(clk)}
		var beb appia.Layer
		switch strat {
		case "fanout":
			beb = group.NewFanoutLayer(group.FanoutConfig{Self: id, InitialMembers: members})
		case "nativemcast":
			beb = transport.NewNativeMulticastLayer(transport.NativeMulticastConfig{
				Config:  transport.Config{Node: vn, Port: "beb", Logf: func(string, ...any) {}},
				Segment: "lan",
			})
		case "epidemic":
			beb = epidemic.NewLayer(epidemic.Config{
				Self: id, InitialMembers: members,
				Fanout: cfg.Fanout, Rounds: cfg.Rounds, Seed: cfg.Seed + int64(id),
			})
		default:
			return StrategyRow{}, fmt.Errorf("unknown strategy %q", strat)
		}
		q, err := appia.NewQoS(strat,
			transport.NewPTPLayer(transport.Config{Node: vn, Port: "beb", Logf: func(string, ...any) {}}),
			beb,
		)
		if err != nil {
			return StrategyRow{}, err
		}
		nd.ch = q.CreateChannel("data", nd.sched, appia.WithDeliver(func(ev appia.Event) {
			if _, ok := ev.(*group.CastEvent); ok {
				nd.delivered.add()
			}
		}))
		if err := nd.ch.Start(); err != nil {
			return StrategyRow{}, err
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		if !nd.ch.WaitReady(5 * time.Second) {
			return StrategyRow{}, fmt.Errorf("node %d never ready", nd.id)
		}
	}

	sender := nodes[0]
	for i := 0; i < cfg.Messages; i++ {
		ev := &group.CastEvent{}
		ev.Msg = appia.NewMessage(mkPayload(i))
		if err := sender.ch.Insert(ev, appia.Down); err != nil {
			return StrategyRow{}, err
		}
	}
	// Best-effort: wait until delivery counts stop moving.
	waitStable(clk, cfg.Timeout, func() int {
		total := 0
		for _, nd := range nodes {
			total += nd.delivered.get()
		}
		return total
	})

	row := StrategyRow{Nodes: n, Strategy: strat}
	expected := float64(cfg.Messages) * float64(n-1)
	var deliveredTotal int
	for _, nd := range nodes {
		c := nd.vn.Counters()
		tx := c.TotalTx()
		row.TotalTx += tx
		if tx > row.MaxNodeTx {
			row.MaxNodeTx = tx
		}
		if nd == sender {
			row.SenderTx = tx
		} else {
			deliveredTotal += nd.delivered.get()
		}
	}
	row.DeliveryRatio = float64(deliveredTotal) / expected
	return row, nil
}

// waitStable polls a monotone counter until it stops increasing for a few
// consecutive checks (or the timeout passes).
func waitStable(clk clock.Clock, timeout time.Duration, read func() int) {
	deadline := clk.Now().Add(timeout)
	last, quiet := -1, 0
	for clk.Now().Before(deadline) {
		cur := read()
		if cur == last {
			quiet++
			if quiet >= 10 {
				return
			}
		} else {
			quiet = 0
			last = cur
		}
		clk.Sleep(10 * time.Millisecond)
	}
}

// --- E6: battery-aware relay rotation ---------------------------------------

// EnergyRow reports network lifetime with and without battery-aware
// adaptation.
type EnergyRow struct {
	Mode              string // "static" | "adaptive"
	CastsBeforeDeath  int
	FirstDead         appia.NodeID
	ReconfigurationsN int
}

// EnergyConfig parameterises the lifetime experiment.
type EnergyConfig struct {
	Nodes    int
	Capacity float64
	Timeout  time.Duration
	Seed     int64
}

func (c *EnergyConfig) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Capacity == 0 {
		c.Capacity = 0.4
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
}

// RunEnergyLifetime compares a static relay choice against the EnergyPolicy
// rotation in an all-mobile cell: each member multicasts in turn until the
// first battery dies. Rotation spreads the echo burden, so the adaptive
// mode sustains more casts (paper §1, [20]).
func RunEnergyLifetime(cfg EnergyConfig) ([]EnergyRow, error) {
	cfg.defaults()
	var rows []EnergyRow
	for _, mode := range []string{"static", "adaptive"} {
		row, err := runEnergyMode(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("energy %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runEnergyMode(mode string, cfg EnergyConfig) (EnergyRow, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := vnet.NewWorld(cfg.Seed, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})

	members := make([]appia.NodeID, cfg.Nodes)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	energy := vnet.EnergyConfig{
		CapacityJ:  cfg.Capacity,
		TxPerMsgJ:  0.001,
		RxPerMsgJ:  0.0002,
		TxPerByteJ: 0, RxPerByteJ: 0,
	}

	var reconfigs counter
	var nodes []*morpheus.Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	var policies []morpheus.Policy
	if mode == "adaptive" {
		policies = []morpheus.Policy{core.EnergyPolicy{Hysteresis: 0.2}}
	}
	initial := core.MechoConfig(members[0])
	initialName := core.MechoConfigName(members[0])
	for _, id := range members {
		e := energy
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: vnet.Mobile, Segments: []string{"wlan"},
			Members:           members,
			Energy:            &e,
			InitialConfig:     initial,
			InitialConfigName: initialName,
			Policies:          policies,
			ContextInterval:   40 * time.Millisecond,
			EvalInterval:      60 * time.Millisecond,
			PublishOnChange:   true,
			OnReconfigured: func(uint64, string, time.Duration) {
				reconfigs.add()
			},
		})
		if err != nil {
			return EnergyRow{}, err
		}
		nodes = append(nodes, nd)
	}

	// Let context dissemination settle so the policy sees every battery.
	clk.Sleep(200 * time.Millisecond)

	casts := 0
	deadline := clk.Now().Add(cfg.Timeout)
	row := EnergyRow{Mode: mode}
	for clk.Now().Before(deadline) {
		dead := appia.NoNode
		for _, nd := range nodes {
			if !nd.VNode().Alive() {
				dead = nd.ID()
				break
			}
		}
		if dead != appia.NoNode {
			row.FirstDead = dead
			break
		}
		sender := nodes[casts%len(nodes)]
		if err := sender.Send(mkPayload(casts)); err == nil {
			casts++
		}
		// Pace the workload so battery context keeps flowing and the
		// adaptation loop (sample → disseminate → evaluate → reconfigure)
		// can act between drains, as it would at chat-like rates.
		clk.Sleep(2 * time.Millisecond)
	}
	row.CastsBeforeDeath = casts
	row.ReconfigurationsN = reconfigs.get()
	return row, nil
}

// --- E7: error recovery strategies ------------------------------------------

// ErrorRecoveryRow compares ARQ and FEC at one loss rate.
type ErrorRecoveryRow struct {
	Loss          float64
	Strategy      string // "arq" | "fec"
	DeliveryRatio float64
	TotalTx       uint64
	TxPerDelivery float64
	Elapsed       time.Duration
}

// ErrorRecoveryConfig parameterises the sweep.
type ErrorRecoveryConfig struct {
	LossRates []float64
	Nodes     int
	Messages  int
	K, M      int
	Timeout   time.Duration
	Seed      int64
}

func (c *ErrorRecoveryConfig) defaults() {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0.001, 0.01, 0.05, 0.10, 0.20}
	}
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Messages == 0 {
		c.Messages = 400
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.M == 0 {
		c.M = 2
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 13
	}
}

// RunErrorRecovery reproduces the §2 trade-off: detect-and-retransmit (the
// NAK layer) versus masking (Reed–Solomon FEC) across loss rates. ARQ
// reaches full delivery but its repair traffic grows with loss; FEC keeps
// traffic flat but its coverage decays once losses exceed the parity
// budget. The crossover motivates run-time adaptation.
func RunErrorRecovery(cfg ErrorRecoveryConfig) ([]ErrorRecoveryRow, error) {
	cfg.defaults()
	var rows []ErrorRecoveryRow
	for _, p := range cfg.LossRates {
		for _, strat := range []string{"arq", "fec"} {
			row, err := runErrorRecovery(strat, p, cfg)
			if err != nil {
				return nil, fmt.Errorf("error recovery %s p=%g: %w", strat, p, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runErrorRecovery(strat string, loss float64, cfg ErrorRecoveryConfig) (ErrorRecoveryRow, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := vnet.NewWorld(cfg.Seed, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", Loss: loss})

	members := make([]appia.NodeID, cfg.Nodes)
	for i := range members {
		members[i] = appia.NodeID(i + 1)
	}
	var doc *morpheus.Document
	var name string
	if strat == "arq" {
		doc, name = core.ArqConfig(), core.ArqConfigName
	} else {
		doc, name = core.FecConfig(cfg.K, cfg.M), core.FecConfigName
	}
	var nodes []*rawNode
	defer func() {
		for _, nd := range nodes {
			nd.close()
		}
	}()
	for _, id := range members {
		nd, err := startRawNode(w, id, vnet.Fixed, "lan", members, doc, name)
		if err != nil {
			return ErrorRecoveryRow{}, err
		}
		nodes = append(nodes, nd)
	}

	start := clk.Now()
	sender := nodes[0]
	for i := 0; i < cfg.Messages; i++ {
		if err := sender.send(mkPayload(i)); err != nil {
			return ErrorRecoveryRow{}, err
		}
	}
	// ARQ converges to full delivery; FEC plateaus. Wait for stability.
	expected := cfg.Messages * (cfg.Nodes - 1)
	if strat == "arq" {
		waitFor(clk, cfg.Timeout, func() bool {
			return receiversDelivered(nodes, sender) >= expected
		})
	} else {
		waitStable(clk, cfg.Timeout, func() int { return receiversDelivered(nodes, sender) })
	}
	elapsed := clk.Since(start)

	row := ErrorRecoveryRow{Loss: loss, Strategy: strat, Elapsed: elapsed}
	for _, nd := range nodes {
		row.TotalTx += nd.vn.Counters().TotalTx()
	}
	delivered := receiversDelivered(nodes, sender)
	row.DeliveryRatio = float64(delivered) / float64(expected)
	if delivered > 0 {
		row.TxPerDelivery = float64(row.TotalTx) / float64(delivered)
	}
	return row, nil
}

// receiversDelivered sums deliveries across everyone but the sender (whose
// self-deliveries are local and free).
func receiversDelivered(nodes []*rawNode, sender *rawNode) int {
	total := 0
	for _, nd := range nodes {
		if nd != sender {
			total += nd.delivered.get()
		}
	}
	return total
}

// --- E8: view-synchronous flush ablation ------------------------------------

// FlushAblationRow reports message continuity across a reconfiguration.
type FlushAblationRow struct {
	Mode      string // "flush" | "force"
	Sent      int
	MinGotAll int // smallest delivery count across members
	Lost      int // Sent − MinGotAll
	Reconfigs int
}

// RunFlushAblation quantifies what the §3.3 quiescence step buys: messages
// are sent continuously while the group reconfigures from plain to Mecho.
// With the view-synchronous flush nothing is lost; when the flush is
// skipped (quiescence timeout forced to ~zero) the tear-down races in-flight
// traffic and messages disappear.
func RunFlushAblation(messages int, seed int64) ([]FlushAblationRow, error) {
	if messages == 0 {
		messages = 300
	}
	var rows []FlushAblationRow
	for _, mode := range []string{"flush", "force"} {
		row, err := runFlushMode(mode, messages, seed)
		if err != nil {
			return nil, fmt.Errorf("flush ablation %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFlushMode(mode string, messages int, seed int64) (FlushAblationRow, error) {
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := hybridWorld(seed, clk)
	defer w.Close()
	members := hybridMembers(3)

	quiesce := 10 * time.Second
	if mode == "force" {
		quiesce = time.Millisecond
	}
	var reconfigs counter
	counters := make(map[appia.NodeID]*counter)
	var nodes []*morpheus.Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
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
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    40 * time.Millisecond,
			PublishOnChange: true,
			QuiesceTimeout:  quiesce,
			OnMessage:       func(from morpheus.NodeID, payload []byte) { c.add() },
			OnReconfigured:  func(uint64, string, time.Duration) { reconfigs.add() },
		})
		if err != nil {
			return FlushAblationRow{}, err
		}
		nodes = append(nodes, nd)
	}
	// Send continuously across the adaptation window from node 1.
	sender := nodes[0]
	for i := 0; i < messages; i++ {
		if err := sender.Send(mkPayload(i)); err != nil {
			return FlushAblationRow{}, err
		}
		clk.Sleep(time.Millisecond)
	}
	// Allow late repairs to finish.
	waitStable(clk, 20*time.Second, func() int {
		total := 0
		for _, c := range counters {
			total += c.get()
		}
		return total
	})
	row := FlushAblationRow{Mode: mode, Sent: messages, MinGotAll: messages, Reconfigs: reconfigs.get()}
	for _, c := range counters {
		if got := c.get(); got < row.MinGotAll {
			row.MinGotAll = got
		}
	}
	row.Lost = row.Sent - row.MinGotAll
	return row, nil
}
