package morpheus_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"morpheus"
	"morpheus/internal/core"
	"morpheus/internal/netio"
	"morpheus/internal/netio/udpnet"
)

// TestMorpheusOverUDP runs the full middleware — control channel, context
// dissemination, adaptation, reconfiguration — on real UDP sockets: three
// endpoints on 127.0.0.1 (one mobile), reliable multicasts flowing, and
// the hybrid-Mecho policy redeploying the data stack live. It is the
// in-process twin of the examples/live multi-process demo.
func TestMorpheusOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	members := []morpheus.NodeID{1, 2, 100}
	peers := map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0", 100: "127.0.0.1:0"}
	nw, err := udpnet.New(udpnet.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	type recv struct {
		mu  sync.Mutex
		got map[string]int
	}
	counts := make(map[morpheus.NodeID]*recv)
	var nodes []*morpheus.Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		kind := netio.Fixed
		if id == 100 {
			kind = netio.Mobile
		}
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: kind, Segments: []string{"lan"}})
		if err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
		rc := &recv{got: make(map[string]int)}
		counts[id] = rc
		nd, err := morpheus.Start(morpheus.Config{
			Endpoint:        ep,
			Members:         members,
			Policies:        []morpheus.Policy{core.HybridMechoPolicy{}},
			ContextInterval: 50 * time.Millisecond,
			EvalInterval:    60 * time.Millisecond,
			PublishOnChange: true,
			Heartbeat:       100 * time.Millisecond,
			SuspectAfter:    5 * time.Second,
			OnMessage: func(from morpheus.NodeID, payload []byte) {
				rc.mu.Lock()
				rc.got[string(payload)]++
				rc.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("start %d: %v", id, err)
		}
		if nd.ID() != id || nd.Endpoint() != ep {
			t.Fatalf("node %d: identity not read from endpoint", id)
		}
		if nd.VNode() != nil {
			t.Fatalf("node %d: VNode non-nil on a udpnet substrate", id)
		}
		nodes = append(nodes, nd)
	}

	// The group is hybrid (two fixed, one mobile): the policy must
	// redeploy everyone from plain to Mecho over the real sockets.
	wantCfg := core.MechoConfigName(1)
	waitUntil(t, 60*time.Second, "mecho deployed everywhere", func() bool {
		for _, nd := range nodes {
			if nd.ConfigName() != wantCfg {
				return false
			}
		}
		return true
	})

	// Reliable multicast from every member, including across whatever
	// reconfiguration tail is still settling.
	const msgs = 5
	payloads := make([]string, 0, len(nodes)*msgs)
	for _, nd := range nodes {
		for i := 0; i < msgs; i++ {
			p := string(rune('a'+int(nd.ID()%26))) + "-payload-" + time.Now().Format("150405") + "-" + string(rune('0'+i))
			payloads = append(payloads, p)
			if err := nd.Send([]byte(p)); err != nil {
				t.Fatalf("send from %d: %v", nd.ID(), err)
			}
		}
	}
	waitUntil(t, 60*time.Second, "all payloads delivered everywhere", func() bool {
		for _, rc := range counts {
			rc.mu.Lock()
			ok := true
			for _, p := range payloads {
				if rc.got[p] == 0 {
					ok = false
					break
				}
			}
			rc.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})

	// Exactly-once: the reliable suite must not duplicate deliveries.
	for id, rc := range counts {
		rc.mu.Lock()
		for _, p := range payloads {
			if n := rc.got[p]; n != 1 {
				t.Errorf("node %d delivered %q %d times", id, p, n)
			}
		}
		rc.mu.Unlock()
	}

	// The mobile's radio did real, accounted work over UDP.
	var mobile *morpheus.Node
	for _, nd := range nodes {
		if nd.ID() == 100 {
			mobile = nd
		}
	}
	if tx := mobile.Endpoint().Counters().TotalTx(); tx == 0 {
		t.Error("mobile endpoint counted no transmissions")
	}
}

// TestMultiGroupOverUDP proves the group-hosting runtime on real sockets:
// three endpoints on 127.0.0.1 each join two extra groups over one UDP
// endpoint and one control plane, exchange reliable multicasts in every
// group, and nothing crosses group boundaries.
func TestMultiGroupOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	members := []morpheus.NodeID{1, 2, 3}
	peers := map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: "127.0.0.1:0"}
	nw, err := udpnet.New(udpnet.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	groupNames := []string{"rooms-a", "rooms-b"}
	type tally struct {
		mu  sync.Mutex
		got map[string]map[string]int // group -> payload -> count
	}
	counts := make(map[morpheus.NodeID]*tally)
	var nodes []*morpheus.Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
		tl := &tally{got: make(map[string]map[string]int)}
		for _, gname := range groupNames {
			tl.got[gname] = make(map[string]int)
		}
		counts[id] = tl
		nd, err := morpheus.Start(morpheus.Config{
			Endpoint:     ep,
			Members:      members,
			Heartbeat:    100 * time.Millisecond,
			SuspectAfter: 5 * time.Second,
		})
		if err != nil {
			t.Fatalf("start %d: %v", id, err)
		}
		for _, gname := range groupNames {
			gname := gname
			_, err := nd.Join(gname, morpheus.GroupConfig{
				Members: members,
				OnCast: func(ev *morpheus.CastEvent) {
					if ev.Group != gname {
						t.Errorf("node %d: event tagged %q delivered in %q", id, ev.Group, gname)
						return
					}
					tl.mu.Lock()
					tl.got[gname][string(ev.Msg.Bytes())]++
					tl.mu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("node %d join %s: %v", id, gname, err)
			}
		}
		nodes = append(nodes, nd)
	}

	const msgs = 5
	want := make(map[string][]string)
	for _, nd := range nodes {
		for _, gname := range groupNames {
			for i := 0; i < msgs; i++ {
				p := fmt.Sprintf("%s|from=%d|%d", gname, nd.ID(), i)
				want[gname] = append(want[gname], p)
				if err := nd.Group(gname).Send([]byte(p)); err != nil {
					t.Fatalf("send %s from %d: %v", gname, nd.ID(), err)
				}
			}
		}
	}
	waitUntil(t, 60*time.Second, "all group payloads delivered everywhere", func() bool {
		for _, tl := range counts {
			tl.mu.Lock()
			ok := true
			for _, gname := range groupNames {
				for _, p := range want[gname] {
					if tl.got[gname][p] == 0 {
						ok = false
						break
					}
				}
			}
			tl.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})
	// Exactly once, and only in the right group.
	for id, tl := range counts {
		tl.mu.Lock()
		for _, gname := range groupNames {
			if extra := len(tl.got[gname]) - len(want[gname]); extra != 0 {
				t.Errorf("node %d group %s holds %d unexpected payloads", id, gname, extra)
			}
			for _, p := range want[gname] {
				if n := tl.got[gname][p]; n != 1 {
					t.Errorf("node %d group %s delivered %q %d times", id, gname, p, n)
				}
			}
		}
		tl.mu.Unlock()
	}
}

// TestIdleFlushOverUDP pins the scheduler-idle flush end to end: with the
// wire plane's delay bound set to an hour, a cast must still reach every
// member of a 3-node group within a second — each stack flushes the
// coalescer itself the moment it runs out of work.
func TestIdleFlushOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	t.Run("pooled", func(t *testing.T) {
		members := []morpheus.NodeID{1, 2, 3}
		peers := map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: "127.0.0.1:0"}
		nw, err := udpnet.New(udpnet.Config{Peers: peers, WireFlushDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		delivered := make(chan morpheus.NodeID, len(members))
		var nodes []*morpheus.Node
		defer func() {
			for _, nd := range nodes {
				_ = nd.Close()
			}
		}()
		for _, id := range members {
			ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
			if err != nil {
				t.Fatalf("attach %d: %v", id, err)
			}
			nd, err := morpheus.Start(morpheus.Config{
				Endpoint: ep,
				Members:  members,
				OnMessage: func(morpheus.NodeID, []byte) {
					delivered <- id
				},
			})
			if err != nil {
				t.Fatalf("start %d: %v", id, err)
			}
			nodes = append(nodes, nd)
		}
		if err := nodes[0].Send([]byte("idle-flushed")); err != nil {
			t.Fatal(err)
		}
		deadline := time.After(time.Second)
		for seen := 0; seen < len(members); seen++ {
			select {
			case <-delivered:
			case <-deadline:
				t.Fatalf("%d of %d members delivered within 1s: frames waited on the delay bound", seen, len(members))
			}
		}
	})
}

// waitUntil polls cond until true or the deadline.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
