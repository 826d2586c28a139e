package morpheus

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"morpheus/internal/core"
	"morpheus/internal/vnet/vnettest"
)

// groupCollector records one group's deliveries at one node and checks the
// two isolation invariants: every delivered cast carries this group's tag,
// and every payload was sent into this group (payloads are marked with the
// group name at the sender).
type groupCollector struct {
	group string
	mu    sync.Mutex
	got   map[string]int
	leaks []string
}

func newGroupCollector(group string) *groupCollector {
	return &groupCollector{group: group, got: make(map[string]int)}
}

func (c *groupCollector) config() GroupConfig {
	return GroupConfig{
		OnCast: func(ev *CastEvent) {
			if ev.Group != c.group {
				c.mu.Lock()
				c.leaks = append(c.leaks, fmt.Sprintf("tag %q on channel of group %q", ev.Group, c.group))
				c.mu.Unlock()
			}
		},
		OnMessage: func(from NodeID, payload []byte) {
			c.mu.Lock()
			defer c.mu.Unlock()
			if !strings.HasPrefix(string(payload), "g="+c.group+";") {
				c.leaks = append(c.leaks, fmt.Sprintf("payload %q delivered in group %q", payload, c.group))
				return
			}
			c.got[string(payload)]++
		},
	}
}

func (c *groupCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *groupCollector) exactlyOnce() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p, n := range c.got {
		if n != 1 {
			return fmt.Sprintf("%q delivered %d times", p, n), false
		}
	}
	return "", true
}

func (c *groupCollector) leaked() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.leaks...)
}

// TestMultiGroupStress is the acceptance scenario of the group-hosting
// runtime: one node set (three fixed, one mobile) hosts four groups with
// mixed configurations; traffic flows concurrently in all of them while
// two groups reconfigure plain→Mecho simultaneously; nothing leaks across
// groups (asserted via the group tags and payload markers), nothing is
// lost, and after the dust settles the mobile's per-group transmission
// cost matches each group's deployed stack.
func TestMultiGroupStress(t *testing.T) {
	w, clk := hybridWorld(t, 21)
	members := []NodeID{1, 2, 3, 100}
	kinds := map[NodeID]Kind{1: Fixed, 2: Fixed, 3: Fixed, 100: Mobile}
	groupNames := []string{"alpha", "beta", "gamma", "delta"}

	// alpha and beta adapt (they will reconfigure plain→Mecho concurrently
	// once context disseminates); gamma stays plain; delta starts on Mecho.
	mkGroupCfg := func(name string, col *groupCollector) GroupConfig {
		gc := col.config()
		gc.Members = members
		switch name {
		case "alpha", "beta":
			gc.Policies = []Policy{core.HybridMechoPolicy{}}
		case "delta":
			gc.InitialConfig = core.MechoConfig(1)
			gc.InitialConfigName = core.MechoConfigName(1)
		}
		return gc
	}

	nodes := make(map[NodeID]*Node, len(members))
	groups := make(map[NodeID]map[string]*Group)
	cols := make(map[NodeID]map[string]*groupCollector)
	for _, id := range members {
		n, err := Start(Config{
			World: w, ID: id, Kind: kinds[id], Members: members,
			ContextInterval: 30 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[id] = n
		groups[id] = make(map[string]*Group)
		cols[id] = make(map[string]*groupCollector)
		for _, gname := range groupNames {
			col := newGroupCollector(gname)
			g, err := n.Join(gname, mkGroupCfg(gname, col))
			if err != nil {
				t.Fatalf("node %d join %s: %v", id, gname, err)
			}
			groups[id][gname] = g
			cols[id][gname] = col
		}
	}
	if got := len(nodes[1].Groups()); got != 5 { // four named + default
		t.Fatalf("node 1 hosts %d groups, want 5", got)
	}

	// Phase 1 — stress: two senders fire into all four groups concurrently
	// while alpha and beta adapt underneath the traffic.
	const perSender = 40
	var dones []chan struct{}
	for _, sender := range []NodeID{2, 100} {
		for _, gname := range groupNames {
			sender, gname := sender, gname
			done := make(chan struct{})
			dones = append(dones, done)
			clk.Go(func() {
				defer close(done)
				g := groups[sender][gname]
				for i := 0; i < perSender; i++ {
					payload := fmt.Sprintf("g=%s;from=%d;n=%03d", gname, sender, i)
					if err := g.Send([]byte(payload)); err != nil {
						t.Errorf("send %s from %d: %v", gname, sender, err)
						return
					}
					clk.Sleep(time.Millisecond)
				}
			})
		}
	}
	for _, done := range dones {
		clk.Wait(done)
	}

	// Both adaptive groups must have reconfigured to Mecho on every node —
	// independently (each has its own epoch counter).
	for _, gname := range []string{"alpha", "beta"} {
		for _, id := range members {
			g := groups[id][gname]
			vnettest.Eventually(t, clk, 20*time.Second, fmt.Sprintf("node %d group %s deploys mecho", id, gname), func() bool {
				return g.ConfigName() == core.MechoConfigName(1) && g.Epoch() >= 2
			})
		}
	}
	// The static groups must NOT have moved.
	for _, id := range members {
		if got := groups[id]["gamma"].ConfigName(); got != core.PlainConfigName {
			t.Errorf("node %d: gamma config = %q, want plain", id, got)
		}
		if e := groups[id]["gamma"].Epoch(); e != 1 {
			t.Errorf("node %d: gamma epoch = %d, want 1", id, e)
		}
		if got := groups[id]["delta"].ConfigName(); got != core.MechoConfigName(1) {
			t.Errorf("node %d: delta config = %q", id, got)
		}
	}

	// Everything sent must arrive everywhere, exactly once, in its group.
	total := 2 * perSender
	for _, id := range members {
		for _, gname := range groupNames {
			col := cols[id][gname]
			vnettest.Eventually(t, clk, 20*time.Second, fmt.Sprintf("node %d group %s delivers %d", id, gname, total), func() bool {
				return col.count() >= total
			})
			if msg, ok := col.exactlyOnce(); !ok {
				t.Errorf("node %d group %s: %s", id, gname, msg)
			}
		}
	}
	// Zero cross-group leakage, asserted via group tags and markers.
	for _, id := range members {
		for _, gname := range groupNames {
			if leaks := cols[id][gname].leaked(); len(leaks) != 0 {
				t.Errorf("node %d group %s leaked: %v", id, gname, leaks[0])
			}
		}
	}

	// Phase 2 — per-group Figure-3-style cost, post-settle: the mobile pays
	// one data transmission per cast in the Mecho groups and n−1 in the
	// plain group, attributed per group by the group counters.
	const k = 25
	mob := nodes[100]
	for _, gname := range groupNames {
		groups[100][gname].ResetCounters()
		before := cols[1][gname].count()
		for i := 0; i < k; i++ {
			payload := fmt.Sprintf("g=%s;from=%d;phase2=%03d", gname, mob.ID(), i)
			if err := groups[100][gname].Send([]byte(payload)); err != nil {
				t.Fatal(err)
			}
		}
		vnettest.Eventually(t, clk, 10*time.Second, fmt.Sprintf("group %s phase-2 deliveries", gname), func() bool {
			return cols[1][gname].count() >= before+k
		})
		tx := groups[100][gname].Counters().Tx[ClassData].Msgs
		want := uint64(k) // Mecho: one unicast to the relay per cast
		if gname == "gamma" {
			want = uint64(k * (len(members) - 1)) // plain fan-out
		}
		if tx != want {
			t.Errorf("mobile data tx in %s = %d, want %d", gname, tx, want)
		}
	}

	// Leave: withdrawing from one group must not disturb the others.
	if err := groups[100]["gamma"].Leave(); err != nil {
		t.Fatal(err)
	}
	if g := nodes[100].Group("gamma"); g != nil {
		t.Error("gamma still listed after Leave")
	}
	if err := groups[100]["alpha"].Send([]byte("g=alpha;from=100;post-leave")); err != nil {
		t.Errorf("alpha send after gamma leave: %v", err)
	}
}
