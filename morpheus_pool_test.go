package morpheus_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"morpheus"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/vnet"
)

// TestPooledManyGroupStress is the scheduler pool's morpheus-level stress
// proof: three nodes host hundreds of groups through join/flood/leave waves
// on virtual time — the second wave joining while the first is still under
// load, the first leaving while the second floods. It asserts
//
//   - exactly-once, zero-leak delivery in every group at every member,
//   - and bit-identical delivery traces at equal seed across the default
//     pool, a single-worker pool and a four-worker pool — the "worker
//     count does not change the execution" theorem stated through the
//     public Join/Send/Leave surface.
//
// Under -race this doubles as the proof that pool handoffs (park → post →
// enqueue → pop → drain) carry the happens-before edges the serialization
// illusion relies on, at 512-group scale.
func TestPooledManyGroupStress(t *testing.T) {
	groups := 512
	if testing.Short() {
		groups = 96
	}
	const seed = 31
	pooled := runPooledStress(t, seed, groups, 0)
	single := runPooledStress(t, seed, groups, 1)
	four := runPooledStress(t, seed, groups, 4)
	if pooled != single {
		t.Fatal("equal-seed traces diverged: default pool vs single-worker pool")
	}
	if pooled != four {
		t.Fatal("equal-seed traces diverged: default pool vs four-worker pool")
	}
}

// TestStartRejectsNegativeSchedulerWorkers pins that a negative worker
// count is a configuration error: the pool is the only executor for hosted
// groups, so no negative value selects another mode.
func TestStartRejectsNegativeSchedulerWorkers(t *testing.T) {
	nw := loopnet.New()
	defer nw.Close()
	ep, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed, Segments: []string{"lan"}})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := morpheus.Start(morpheus.Config{
		Endpoint:         ep,
		Members:          []morpheus.NodeID{1},
		SchedulerWorkers: -1,
	})
	if err == nil {
		_ = nd.Close()
		t.Fatal("Start accepted SchedulerWorkers -1")
	}
}

// runPooledStress executes one join/flood/leave wave scenario with the
// given scheduler-worker setting and returns the canonical delivery trace.
func runPooledStress(t *testing.T, seed int64, groupsN, workers int) string {
	t.Helper()
	const (
		msgsPerGroup = 2 // per sending node
		sendersN     = 4 // flood actors per node, striding the group space
	)
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorldWithClock(seed, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})

	members := []morpheus.NodeID{1, 2, 3}
	type key struct {
		node  morpheus.NodeID
		group string
	}
	var traceMu sync.Mutex
	traces := make(map[key][]string)

	nodes := make(map[morpheus.NodeID]*morpheus.Node, len(members))
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Fixed, Segments: []string{"lan"},
			Members:          members,
			SchedulerWorkers: workers,
			ContextInterval:  40 * time.Millisecond,
			EvalInterval:     50 * time.Millisecond,
			PublishOnChange:  true,
		})
		if err != nil {
			t.Fatalf("start node %d: %v", id, err)
		}
		nodes[id] = nd
	}

	gname := func(i int) string { return fmt.Sprintf("p%03d", i) }
	joined := make(map[morpheus.NodeID]map[string]*morpheus.Group, len(members))
	for _, id := range members {
		joined[id] = make(map[string]*morpheus.Group, groupsN)
	}
	join := func(i int) {
		name := gname(i)
		for _, id := range members {
			k := key{node: id, group: name}
			g, err := nodes[id].Join(name, morpheus.GroupConfig{
				Members: members,
				OnCast: func(ev *morpheus.CastEvent) {
					traceMu.Lock()
					traces[k] = append(traces[k], fmt.Sprintf("%s:%d:%d:%s", ev.Group, ev.Origin, ev.Seq, ev.Msg.Bytes()))
					traceMu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("node %d join %s: %v", id, name, err)
			}
			joined[id][name] = g
		}
	}

	// flood starts sendersN actors per node, each covering a strided slice
	// of groups [lo, hi); returns a join function blocking through the clock.
	flood := func(lo, hi int) func() {
		var dones []chan struct{}
		for _, id := range members {
			id := id
			for a := 0; a < sendersN; a++ {
				a := a
				d := make(chan struct{})
				dones = append(dones, d)
				clk.Go(func() {
					defer close(d)
					for i := 0; i < msgsPerGroup; i++ {
						for gi := lo + a; gi < hi; gi += sendersN {
							name := gname(gi)
							payload := fmt.Sprintf("g=%s;n=%d;i=%d", name, id, i)
							if err := joined[id][name].Send([]byte(payload)); err != nil {
								t.Errorf("send %s from %d: %v", name, id, err)
								return
							}
						}
						clk.Sleep(time.Millisecond)
					}
				})
			}
		}
		return func() {
			for _, d := range dones {
				clk.Wait(d)
			}
		}
	}

	wantPerGroup := len(members) * msgsPerGroup
	waitDelivered := func(lo, hi int) {
		t.Helper()
		deadline := clk.Now().Add(60 * time.Second)
		for clk.Now().Before(deadline) {
			complete := func() bool {
				traceMu.Lock()
				defer traceMu.Unlock()
				for i := lo; i < hi; i++ {
					for _, id := range members {
						if len(traces[key{node: id, group: gname(i)}]) < wantPerGroup {
							return false
						}
					}
				}
				return true
			}()
			if complete {
				return
			}
			clk.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("groups [%d,%d): deliveries incomplete", lo, hi)
	}

	// Wave 1: the first half joins and floods.
	half := groupsN / 2
	for i := 0; i < half; i++ {
		join(i)
	}
	wave1Done := flood(0, half)

	// Wave 2 joins while wave 1 is still flooding: the driver's joins
	// interleave with the sender actors on the virtual timeline.
	for i := half; i < groupsN; i++ {
		join(i)
	}
	wave1Done()
	waitDelivered(0, half)

	// Wave 1 leaves on every node while wave 2 floods underneath.
	wave2Done := flood(half, groupsN)
	for i := 0; i < half; i++ {
		for _, id := range members {
			if err := joined[id][gname(i)].Leave(); err != nil {
				t.Fatalf("node %d leave %s: %v", id, gname(i), err)
			}
		}
	}
	wave2Done()
	waitDelivered(half, groupsN)

	// The pool actually hosted the run.
	if ps := nodes[1].PoolStats(); ps.Workers == 0 || ps.Batches == 0 || !ps.Deterministic {
		t.Fatalf("pooled virtual run has implausible pool stats: %+v", ps)
	}

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
	if len(keys) != len(members)*groupsN {
		t.Fatalf("observed %d (node,group) traces, want %d", len(keys), len(members)*groupsN)
	}
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
		if len(entries) != wantPerGroup {
			t.Fatalf("node %d group %s: delivered %d, want %d", k.node, k.group, len(entries), wantPerGroup)
		}
		fmt.Fprintf(&b, "node=%d group=%s\n%s\n", k.node, k.group, strings.Join(entries, "\n"))
	}
	return b.String()
}
