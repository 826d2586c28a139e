package morpheus_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"morpheus"
	"morpheus/internal/vnet"
)

// TestMultiGroupVirtualStress is the virtual-time concurrency stress test:
// three nodes on a virtual-clock world host groups that are joined, flooded
// from every member concurrently, and left — with a second wave of joins
// landing while the first wave is still under load. It asserts
//
//   - exactly-once, zero-leak delivery in every group at every member,
//   - and bit-identical delivery traces across two equal-seed runs —
//     the determinism guarantee of the clock plane, exercised through the
//     full Join/Send/Leave surface rather than the experiment drivers.
//
// Under -race this doubles as the proof that the run-token handoffs carry
// the happens-before edges the serialized execution relies on.
func TestMultiGroupVirtualStress(t *testing.T) {
	const seed = 23
	first := runVirtualStress(t, seed)
	second := runVirtualStress(t, seed)
	if first != second {
		t.Fatalf("equal-seed virtual stress runs diverged:\nrun1:\n%s\nrun2:\n%s", first, second)
	}
}

// runVirtualStress executes one full stress scenario and returns the
// canonical delivery trace (per node, per group, in delivery order).
func runVirtualStress(t *testing.T, seed int64) string {
	t.Helper()
	const (
		msgsPerSender = 8
		nodesN        = 3
	)
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(seed, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})

	members := []morpheus.NodeID{1, 2, 3}
	type key struct {
		node  morpheus.NodeID
		group string
	}
	var traceMu sync.Mutex
	traces := make(map[key][]string)

	nodes := make(map[morpheus.NodeID]*morpheus.Node, nodesN)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Fixed, Segments: []string{"lan"},
			Members:         members,
			ContextInterval: 40 * time.Millisecond,
			EvalInterval:    50 * time.Millisecond,
			PublishOnChange: true,
		})
		if err != nil {
			t.Fatalf("start node %d: %v", id, err)
		}
		nodes[id] = nd
	}

	join := func(groupName string) map[morpheus.NodeID]*morpheus.Group {
		gs := make(map[morpheus.NodeID]*morpheus.Group, nodesN)
		for _, id := range members {
			id := id
			k := key{node: id, group: groupName}
			g, err := nodes[id].Join(groupName, morpheus.GroupConfig{
				Members: members,
				OnCast: func(ev *morpheus.CastEvent) {
					traceMu.Lock()
					traces[k] = append(traces[k], fmt.Sprintf("%s:%d:%d:%s", ev.Group, ev.Origin, ev.Seq, ev.Msg.Bytes()))
					traceMu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("node %d join %s: %v", id, groupName, err)
			}
			gs[id] = g
		}
		return gs
	}

	// flood starts one sender actor per member of the group and returns a
	// join function that blocks (through the clock) until all are done.
	flood := func(groupName string, gs map[morpheus.NodeID]*morpheus.Group) func() {
		dones := make([]chan struct{}, 0, len(members))
		for _, id := range members {
			id := id
			d := make(chan struct{})
			dones = append(dones, d)
			clk.Go(func() {
				defer close(d)
				for i := 0; i < msgsPerSender; i++ {
					payload := fmt.Sprintf("g=%s;n=%d;i=%d", groupName, id, i)
					if err := gs[id].Send([]byte(payload)); err != nil {
						t.Errorf("send %s from %d: %v", groupName, id, err)
						return
					}
					clk.Sleep(time.Millisecond)
				}
			})
		}
		return func() {
			for _, d := range dones {
				clk.Wait(d)
			}
		}
	}

	delivered := func(groupName string) bool {
		want := nodesN * msgsPerSender
		traceMu.Lock()
		defer traceMu.Unlock()
		for _, id := range members {
			if len(traces[key{node: id, group: groupName}]) < want {
				return false
			}
		}
		return true
	}
	waitDelivered := func(groupName string) {
		deadline := clk.Now().Add(30 * time.Second)
		for clk.Now().Before(deadline) {
			if delivered(groupName) {
				return
			}
			clk.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("group %s: deliveries incomplete", groupName)
	}

	// Wave 1: two groups under load.
	wave1 := map[string]map[morpheus.NodeID]*morpheus.Group{
		"stress-a": join("stress-a"),
		"stress-b": join("stress-b"),
	}
	joinA := flood("stress-a", wave1["stress-a"])
	joinB := flood("stress-b", wave1["stress-b"])

	// Wave 2 lands while wave 1 is still sending: joins from the driver
	// interleave with the sender actors on the virtual timeline.
	wave2 := map[string]map[morpheus.NodeID]*morpheus.Group{
		"stress-c": join("stress-c"),
	}
	joinC := flood("stress-c", wave2["stress-c"])

	joinA()
	joinB()
	joinC()
	for _, name := range []string{"stress-a", "stress-b", "stress-c"} {
		waitDelivered(name)
	}

	// Leave wave 1 on every node while wave 2 stays live, then flood a
	// fourth group to verify the runtime is undisturbed by the departures.
	for _, id := range members {
		if err := wave1["stress-a"][id].Leave(); err != nil {
			t.Fatalf("node %d leave stress-a: %v", id, err)
		}
	}
	wave3 := join("stress-d")
	joinD := flood("stress-d", wave3)
	joinD()
	waitDelivered("stress-d")

	// Exactly-once, zero-leak verification per (node, group).
	traceMu.Lock()
	defer traceMu.Unlock()
	keys := make([]key, 0, len(traces))
	for k := range traces {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].group < keys[j].group
	})
	var b strings.Builder
	for _, k := range keys {
		entries := traces[k]
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			if !strings.HasPrefix(e, k.group+":") || !strings.Contains(e, "g="+k.group+";") {
				t.Fatalf("node %d group %s: cross-group leak: %q", k.node, k.group, e)
			}
			if seen[e] {
				t.Fatalf("node %d group %s: duplicate delivery: %q", k.node, k.group, e)
			}
			seen[e] = true
		}
		if len(entries) != nodesN*msgsPerSender {
			t.Fatalf("node %d group %s: delivered %d, want %d", k.node, k.group, len(entries), nodesN*msgsPerSender)
		}
		fmt.Fprintf(&b, "node=%d group=%s\n%s\n", k.node, k.group, strings.Join(entries, "\n"))
	}
	return b.String()
}
