package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/chaos/invariants"
	"morpheus/internal/clock"
	"morpheus/internal/core"
)

// --- E11: many-group hosting at pool scale -----------------------------------
//
// E11 is the scheduler pool's scale proof: one node set hosts hundreds of
// groups over a single shared endpoint, control plane and scheduler worker
// pool, with a mixed plain/Mecho stack population and a quarter of the
// groups reconfiguring plain→Mecho *while* the mobile floods every group.
// The run then checks the full shared invariant suite per group — bounded
// windows with exact credit accounting, exactly-once gap-free complete
// delivery at every receiver, zero cross-group leaks — and emits one
// canonical row per group. Under the virtual clock the whole matrix is
// bit-reproducible at any pool size: the golden
// hash is the theorem "pooled dispatch does not change the execution"
// stated over ~800 concurrently hosted stacks.

// ManyGroupsRow reports one hosted group of the E11 scenario.
type ManyGroupsRow struct {
	Group  string
	Config string // final configuration
	Epoch  uint64
	// DeliveredFixed / DeliveredMobile count measured payload deliveries
	// at the fixed observer (node 1) and at the mobile itself.
	DeliveredFixed  int
	DeliveredMobile int
	// Leaked counts deliveries that crossed a group boundary (want 0).
	Leaked int
	// WindowHighWater / Acquired are the mobile sender's window marks.
	WindowHighWater int
	Acquired        uint64
	// Violations is the group's invariant-violation count (want 0).
	Violations int
}

// ManyGroupsConfig parameterises E11.
type ManyGroupsConfig struct {
	// Groups is how many groups the node set hosts (default 256).
	Groups int
	// Messages are sent per group by the mobile, concurrently across
	// groups, starting before the adaptive quarter reconfigures (default 3).
	Messages int
	// Senders is how many concurrent sender actors partition the group
	// space (default 8).
	Senders int
	// SendWindow bounds each group's in-flight casts (default 16).
	SendWindow int
	// Timeout bounds the run (virtual time).
	Timeout time.Duration
	// Seed drives the virtual network.
	Seed int64
}

func (c *ManyGroupsConfig) defaults() {
	if c.Groups == 0 {
		c.Groups = 256
	}
	if c.Messages == 0 {
		c.Messages = 6
	}
	if c.Senders == 0 {
		c.Senders = 8
	}
	if c.SendWindow == 0 {
		c.SendWindow = 16
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 23
	}
}

// mgxName names group i ("g000"…): fixed width keeps rows sortable.
func mgxName(i int) string { return fmt.Sprintf("g%03d", i) }

// mgxSettled returns group i's expected final configuration: every fourth
// group adapts plain→Mecho under load, the next quarter is pinned Mecho
// from the start, and the rest stay plain.
func mgxSettled(i int) string {
	switch i % 4 {
	case 0, 1:
		return core.MechoConfigName(1)
	default:
		return core.PlainConfigName
	}
}

// mgxSpec builds group i's GroupConfig pieces.
func mgxSpec(i int) (policies []morpheus.Policy, initial *morpheus.Document, initialName string) {
	switch i % 4 {
	case 0: // adaptive: reconfigures while the flood runs
		return []morpheus.Policy{core.HybridMechoPolicy{}}, nil, ""
	case 1: // pinned Mecho
		return nil, core.MechoConfig(1), core.MechoConfigName(1)
	default: // pinned plain
		return nil, nil, ""
	}
}

// mgxObserver tallies one group's deliveries at one node, in delivery
// order, for the exactly-once/gap-free checker.
type mgxObserver struct {
	group  string
	mu     sync.Mutex
	seq    []invariants.Delivery
	leaked int
}

func (o *mgxObserver) onCast(ev *morpheus.CastEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	body := string(ev.Msg.Bytes())
	var idx int
	if ev.Group != o.group || !strings.HasPrefix(body, "g="+o.group+";") ||
		parseMgxIndex(body, &idx) != nil {
		o.leaked++
		return
	}
	o.seq = append(o.seq, invariants.Delivery{Origin: ev.Origin, Stream: o.group, Index: idx})
}

func (o *mgxObserver) snapshot() ([]invariants.Delivery, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]invariants.Delivery(nil), o.seq...), o.leaked
}

// mgxPayload marks a payload with its group and send index.
func mgxPayload(group string, i int) []byte {
	return []byte(fmt.Sprintf("g=%s;i=%06d", group, i))
}

func parseMgxIndex(body string, idx *int) error {
	at := strings.LastIndexByte(body, '=')
	_, err := fmt.Sscanf(body[at+1:], "%d", idx)
	return err
}

// RunManyGroups is E11. Topology: two fixed nodes (1: relay + observer, 2:
// receiver) on the LAN and the mobile PDA on the WLAN, all hosting every
// group. The mobile floods all groups from Senders concurrent actors while
// the adaptive quarter reconfigures plain→Mecho underneath; at quiescence
// every group is checked against the shared invariant suite.
func RunManyGroups(cfg ManyGroupsConfig) ([]ManyGroupsRow, error) {
	cfg.defaults()
	members := []appia.NodeID{1, 2, MobileID}

	clk := clock.NewVirtual()
	defer clk.Stop()
	w := hybridWorld(cfg.Seed, clk)
	defer w.Close()

	nodes := make(map[appia.NodeID]*morpheus.Node, len(members))
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	// underLoad counts reconfigurations that commit while the flood is
	// still running — the "concurrent reconfigs under load" witness.
	// Deterministic under the virtual clock (the commit order and the
	// flood's progress are both functions of virtual time).
	var underLoad atomic.Int64
	var floodActive atomic.Bool
	// obs[nodeID][group] — node 1 (fixed observer) and the mobile.
	obs := map[appia.NodeID]map[string]*mgxObserver{
		1:        make(map[string]*mgxObserver, cfg.Groups),
		MobileID: make(map[string]*mgxObserver, cfg.Groups),
	}
	groups := make(map[appia.NodeID]map[string]*morpheus.Group, len(members))
	for _, id := range members {
		kind, seg := morpheus.Fixed, "lan"
		if id == MobileID {
			kind, seg = morpheus.Mobile, "wlan"
		}
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: kind, Segments: []string{seg},
			Members:         members,
			ContextInterval: 40 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
		})
		if err != nil {
			return nil, err
		}
		nodes[id] = nd
		groups[id] = make(map[string]*morpheus.Group, cfg.Groups)
		for i := 0; i < cfg.Groups; i++ {
			name := mgxName(i)
			policies, initial, initialName := mgxSpec(i)
			gc := morpheus.GroupConfig{
				Members:           members,
				Policies:          policies,
				InitialConfig:     initial,
				InitialConfigName: initialName,
				SendWindow:        cfg.SendWindow,
				OnReconfigured: func(epoch uint64, _ string, _ time.Duration) {
					if epoch > 1 && floodActive.Load() {
						underLoad.Add(1)
					}
				},
			}
			if perNode := obs[id]; perNode != nil {
				o := &mgxObserver{group: name}
				perNode[name] = o
				gc.OnCast = o.onCast
			}
			g, err := nd.Join(name, gc)
			if err != nil {
				return nil, fmt.Errorf("node %d join %s: %w", id, name, err)
			}
			groups[id][name] = g
		}
	}

	// Flood every group from the mobile, Senders actors each owning a
	// contiguous slice of the group space — concurrent with the adaptive
	// quarter's reconfigurations. Each actor paces with virtual sleeps so
	// the cross-group interleaving exercises the pool's run queues.
	var sendErr error
	var sendErrMu sync.Mutex
	floodActive.Store(true)
	done := make([]chan struct{}, cfg.Senders)
	for a := 0; a < cfg.Senders; a++ {
		a := a
		d := make(chan struct{})
		done[a] = d
		clk.Go(func() {
			defer close(d)
			for i := 0; i < cfg.Messages; i++ {
				for gi := a; gi < cfg.Groups; gi += cfg.Senders {
					name := mgxName(gi)
					if err := groups[MobileID][name].Send(mgxPayload(name, i)); err != nil {
						sendErrMu.Lock()
						if sendErr == nil {
							sendErr = fmt.Errorf("send %s: %w", name, err)
						}
						sendErrMu.Unlock()
						return
					}
				}
				// Pace the rounds so the flood spans the adaptive quarter's
				// context-dissemination + policy-evaluation window: the
				// reconfigurations must run under live traffic (resubmit
				// buffers and credits crossing epochs), not after it.
				clk.Sleep(30 * time.Millisecond)
			}
		})
	}
	for _, d := range done {
		clk.Wait(d)
	}
	if sendErr != nil {
		return nil, sendErr
	}
	floodActive.Store(false)
	// "Under load" must be literal: reconfigurations have to commit while
	// the flood is still running, so epoch transitions exercise live
	// credits and resubmit buffers. A standing property of the scenario,
	// not a flaky timing assertion — the witness count is deterministic.
	if underLoad.Load() == 0 {
		return nil, fmt.Errorf("no reconfiguration committed while the flood ran: not under load")
	}

	// Every group settles on its expected configuration on every node…
	if !waitFor(clk, cfg.Timeout, func() bool {
		for i := 0; i < cfg.Groups; i++ {
			name, want := mgxName(i), mgxSettled(i)
			for _, id := range members {
				if groups[id][name].ConfigName() != want {
					return false
				}
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("groups never settled on their expected configurations")
	}
	// …and delivers the complete flood at both observers.
	want := cfg.Messages
	if !waitFor(clk, cfg.Timeout, func() bool {
		for _, perNode := range obs {
			for _, o := range perNode {
				if seq, _ := o.snapshot(); len(seq) < want {
					return false
				}
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("flood deliveries incomplete")
	}

	// …and stability gossip returns every window credit (quiescence).
	if !waitFor(clk, cfg.Timeout, func() bool {
		for i := 0; i < cfg.Groups; i++ {
			fs := groups[MobileID][mgxName(i)].FlowStats()
			if fs.Window.InUse != 0 || fs.BufferedSends != 0 {
				return false
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("window credits never drained")
	}

	// Harvest: per-group rows plus the shared invariant suite.
	caps := invariants.CapsFor(cfg.SendWindow, 1)
	rows := make([]ManyGroupsRow, 0, cfg.Groups)
	for i := 0; i < cfg.Groups; i++ {
		name := mgxName(i)
		g := groups[MobileID][name]
		fs := g.FlowStats()
		var bad []string
		accepted := map[invariants.StreamKey]int{
			{Origin: MobileID, Stream: name}: cfg.Messages,
		}
		var row ManyGroupsRow
		row.Group = name
		row.Config = g.ConfigName()
		row.Epoch = g.Epoch()
		for _, id := range []appia.NodeID{1, MobileID} {
			o := obs[id][name]
			seq, leaked := o.snapshot()
			label := fmt.Sprintf("node %d/%s", id, name)
			bad = append(bad, invariants.CheckDeliveries(label, seq, accepted)...)
			bad = append(bad, invariants.CheckNoLeak(label, leaked)...)
			if id == 1 {
				row.DeliveredFixed = len(seq)
			} else {
				row.DeliveredMobile = len(seq)
			}
			row.Leaked += leaked
		}
		bad = append(bad, caps.CheckBounded(invariants.FlowRow{
			Label:            fmt.Sprintf("mobile/%s", name),
			WindowHighWater:  fs.Window.HighWater,
			WindowInUse:      fs.Window.InUse,
			Acquired:         fs.Window.Acquired,
			Released:         fs.Window.Released,
			MailboxHighWater: fs.MailboxHighWater,
			NakSentHW:        fs.Nak.SentHighWater,
			NakHistoryHW:     fs.Nak.HistoryHighWater,
			NakBufferHW:      fs.Nak.BufferHighWater,
			NakEvicted:       fs.Nak.Evicted,
			BufferedSends:    fs.BufferedSends,
		})...)
		if len(bad) > 0 {
			sort.Strings(bad)
			return nil, fmt.Errorf("group %s invariant violations:\n  %s",
				name, strings.Join(bad, "\n  "))
		}
		row.WindowHighWater = fs.Window.HighWater
		row.Acquired = fs.Window.Acquired
		rows = append(rows, row)
	}
	return rows, nil
}
