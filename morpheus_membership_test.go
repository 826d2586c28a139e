package morpheus_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"morpheus"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/netio/udpnet"
	"morpheus/internal/vnet"
	"morpheus/internal/vnet/vnettest"
)

// deliveries gathers delivered payloads thread-safely, keyed by payload.
type deliveries struct {
	mu  sync.Mutex
	seq []string
	got map[string]int
}

func newDeliveries() *deliveries { return &deliveries{got: make(map[string]int)} }

func (d *deliveries) add(from morpheus.NodeID, payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq = append(d.seq, string(payload))
	d.got[string(payload)]++
}

func (d *deliveries) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.seq)
}

func (d *deliveries) countPrefix(prefix string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, s := range d.seq {
		if strings.HasPrefix(s, prefix) {
			n++
		}
	}
	return n
}

func (d *deliveries) dups() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for p, n := range d.got {
		if n > 1 {
			out = append(out, fmt.Sprintf("%s x%d", p, n))
		}
	}
	return out
}

// waitFor polls cond through clk until it holds, failing the test once d
// has passed on that clock: virtual time for a vnet world, real time for
// loopnet and udpnet.
func waitFor(t *testing.T, clk morpheus.Clock, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := clk.Now().Add(d)
	for clk.Now().Before(deadline) {
		if cond() {
			return
		}
		clk.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// virtualLAN builds a one-segment world on a fresh virtual clock; the test
// goroutine holds the clock's run token. Cleanups close every node first
// (register them later), then the world, then stop the clock.
func virtualLAN(t *testing.T, seed int64) (*vnet.World, *morpheus.VirtualClock) {
	t.Helper()
	w, clk := vnettest.World(t, seed)
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	return w, clk
}

// joinViaScenario drives the late join end to end on an arbitrary substrate:
// a trio bootstraps the default group and exchanges pre-join traffic, then a
// fourth node that took no part in the bootstrap enters the *running* group
// through one seed member. The joiner must start gap-free at the
// state-transfer frontier: it delivers every post-join cast, none of the
// pre-join history, and its own casts reach everyone.
// Its waits go through clk, the substrate's clock.
func joinViaScenario(t *testing.T, clk morpheus.Clock, attach func(id morpheus.NodeID) morpheus.Endpoint) {
	t.Helper()
	trio := []morpheus.NodeID{1, 2, 3}
	const late = morpheus.NodeID(9)

	cols := make(map[morpheus.NodeID]*deliveries)
	nodes := make(map[morpheus.NodeID]*morpheus.Node)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range trio {
		id := id
		col := newDeliveries()
		cols[id] = col
		nd, err := morpheus.Start(morpheus.Config{
			Endpoint:  attach(id),
			Members:   trio,
			Heartbeat: 30 * time.Millisecond,
			OnMessage: col.add,
		})
		if err != nil {
			t.Fatalf("start %d: %v", id, err)
		}
		nodes[id] = nd
	}

	// Pre-join history: must never reach the late joiner.
	const pre = 4
	for _, id := range trio {
		for i := 0; i < pre; i++ {
			if err := nodes[id].Send([]byte(fmt.Sprintf("pre:%d:%d", id, i))); err != nil {
				t.Fatalf("pre-join send from %d: %v", id, err)
			}
		}
	}
	for _, id := range trio {
		id := id
		waitFor(t, clk, 10*time.Second, fmt.Sprintf("node %d delivers pre-join traffic", id), func() bool {
			return cols[id].count() >= len(trio)*pre
		})
	}

	// The late joiner bootstraps only the control plane (a singleton), then
	// enters the running data group through seed 1.
	lateCol := newDeliveries()
	cols[late] = lateCol
	joiner, err := morpheus.Start(morpheus.Config{
		Endpoint:       attach(late),
		Members:        []morpheus.NodeID{late},
		NoDefaultGroup: true,
		Heartbeat:      30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start late joiner: %v", err)
	}
	nodes[late] = joiner
	if joiner.Group(morpheus.DefaultGroup) != nil {
		t.Fatal("NoDefaultGroup node hosts a default group")
	}
	g, err := joiner.JoinVia(morpheus.DefaultGroup, 1, morpheus.GroupConfig{
		OnMessage: lateCol.add,
	})
	if err != nil {
		t.Fatalf("JoinVia: %v", err)
	}
	if joiner.Group(morpheus.DefaultGroup) != g {
		t.Fatal("joined group not installed under its name")
	}

	// Post-join traffic from every survivor and from the joiner itself.
	const post = 4
	for _, id := range trio {
		for i := 0; i < post; i++ {
			if err := nodes[id].Send([]byte(fmt.Sprintf("post:%d:%d", id, i))); err != nil {
				t.Fatalf("post-join send from %d: %v", id, err)
			}
		}
	}
	for i := 0; i < post; i++ {
		if err := g.Send([]byte(fmt.Sprintf("post:%d:%d", late, i))); err != nil {
			t.Fatalf("send from joiner: %v", err)
		}
	}
	wantPost := (len(trio) + 1) * post
	for id, col := range cols {
		id, col := id, col
		waitFor(t, clk, 15*time.Second, fmt.Sprintf("node %d delivers post-join traffic", id), func() bool {
			return col.countPrefix("post:") >= wantPost
		})
	}

	// Frontier semantics: the joiner saw none of the history and nobody saw
	// anything twice.
	if n := lateCol.countPrefix("pre:"); n != 0 {
		t.Fatalf("late joiner replayed %d pre-join casts", n)
	}
	for id, col := range cols {
		if dups := col.dups(); len(dups) > 0 {
			t.Fatalf("node %d duplicate deliveries: %v", id, dups)
		}
	}
}

// TestJoinViaRunningGroupVnet is the late-join scenario on the simulated
// substrate, on virtual time.
func TestJoinViaRunningGroupVnet(t *testing.T) {
	w, clk := virtualLAN(t, 41)
	joinViaScenario(t, clk, func(id morpheus.NodeID) morpheus.Endpoint {
		ep, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			t.Fatalf("add node %d: %v", id, err)
		}
		return ep
	})
}

// TestJoinViaRunningGroupLoopnet runs the same conformance scenario over the
// in-process channel-based substrate.
func TestJoinViaRunningGroupLoopnet(t *testing.T) {
	nw := loopnet.New()
	t.Cleanup(func() { _ = nw.Close() })
	joinViaScenario(t, morpheus.WallClock(), func(id morpheus.NodeID) morpheus.Endpoint {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
		return ep
	})
}

// TestJoinViaRunningGroupUDP runs the same conformance scenario over real
// UDP sockets (the in-process twin of the examples/live late-join round).
func TestJoinViaRunningGroupUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	peers := map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: "127.0.0.1:0", 9: "127.0.0.1:0"}
	nw, err := udpnet.New(udpnet.Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nw.Close() })
	joinViaScenario(t, morpheus.WallClock(), func(id morpheus.NodeID) morpheus.Endpoint {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
		return ep
	})
}

// TestLeaveReleasesSendWindow pins the survivor-side wedge this PR fixes, on
// the virtual clock. Three members run windowed senders; one member leaves
// gracefully while the others keep saturating their send windows. Because
// the leave is announced through the control plane, the survivors install a
// view excluding the leaver within one stability round — releasing every
// held cast, window credit and byte-window budget. Before the fix the
// departed member's missing acknowledgements pinned the survivors' credits
// forever (data channels run no failure detector, and the leaver stays
// control-live, so nothing ever evicted it).
func TestLeaveReleasesSendWindow(t *testing.T) {
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(43, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})

	members := []morpheus.NodeID{1, 2, 3}
	nodes := make(map[morpheus.NodeID]*morpheus.Node)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	cols := make(map[morpheus.NodeID]*deliveries)
	for _, id := range members {
		col := newDeliveries()
		cols[id] = col
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Fixed, Segments: []string{"lan"},
			Members:         members,
			SendWindow:      4,
			SendWindowBytes: 1 << 10,
			OnMessage:       col.add,
		})
		if err != nil {
			t.Fatalf("start %d: %v", id, err)
		}
		nodes[id] = nd
	}

	// Warm up: one cast from each member delivered everywhere, so the group
	// is demonstrably live before the departure.
	for _, id := range members {
		if err := nodes[id].Send([]byte(fmt.Sprintf("warm:%d", id))); err != nil {
			t.Fatalf("warmup send from %d: %v", id, err)
		}
	}
	warmDeadline := clk.Now().Add(10 * time.Second)
	warm := func() bool {
		for _, id := range members {
			if cols[id].count() < len(members) {
				return false
			}
		}
		return true
	}
	for !warm() {
		if clk.Now().After(warmDeadline) {
			t.Fatalf("warmup never delivered")
		}
		clk.Sleep(5 * time.Millisecond)
	}

	// Node 3 leaves gracefully, then the survivors saturate their windows.
	// Every cast sent from here on needs stability — which the departed
	// member can no longer contribute to.
	leftAt := clk.Now()
	if err := nodes[3].Group(morpheus.DefaultGroup).Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	const burst = 24 // 6x the window: forces credit recycling to finish
	dones := make([]chan struct{}, 0, 2)
	for _, id := range []morpheus.NodeID{1, 2} {
		id := id
		done := make(chan struct{})
		dones = append(dones, done)
		clk.Go(func() {
			defer close(done)
			for i := 0; i < burst; i++ {
				if err := nodes[id].Send([]byte(fmt.Sprintf("burst:%d:%d", id, i))); err != nil {
					t.Errorf("burst send from %d: %v", id, err)
					return
				}
			}
		})
	}
	for _, d := range dones {
		clk.Wait(d)
	}

	// Both survivors' windows must drain completely: InUse down to zero for
	// both message and byte credits, nothing buffered. A wedged window never
	// recovers, so a generous virtual deadline keeps the test sharp without
	// being timing-brittle.
	drainDeadline := clk.Now().Add(30 * time.Second)
	drained := func() bool {
		for _, id := range []morpheus.NodeID{1, 2} {
			fs := nodes[id].Group(morpheus.DefaultGroup).FlowStats()
			if fs.Window.InUse != 0 || fs.WindowBytes.InUse != 0 || fs.BufferedSends != 0 {
				return false
			}
		}
		return true
	}
	for !drained() {
		if clk.Now().After(drainDeadline) {
			var state []string
			for _, id := range []morpheus.NodeID{1, 2} {
				fs := nodes[id].Group(morpheus.DefaultGroup).FlowStats()
				state = append(state, fmt.Sprintf("node %d: win=%d/%d bytes=%d buffered=%d",
					id, fs.Window.InUse, fs.Window.Capacity, fs.WindowBytes.InUse, fs.BufferedSends))
			}
			t.Fatalf("send windows never drained after graceful leave:\n%s", strings.Join(state, "\n"))
		}
		clk.Sleep(10 * time.Millisecond)
	}
	drainedAt := clk.Now()

	// The departure must have been absorbed promptly — the whole burst,
	// window recycling included, completes within a handful of stability
	// rounds (250ms each) of the leave, not on some multi-second eviction.
	if took := drainedAt.Sub(leftAt); took > 10*time.Second {
		t.Fatalf("windows drained only %v after the leave", took)
	}

	// Survivors delivered each other's full burst exactly once.
	for _, id := range []morpheus.NodeID{1, 2} {
		if got := cols[id].countPrefix("burst:"); got != 2*burst {
			t.Fatalf("survivor %d delivered %d burst casts, want %d", id, got, 2*burst)
		}
		if dups := cols[id].dups(); len(dups) > 0 {
			t.Fatalf("survivor %d duplicate deliveries: %v", id, dups)
		}
	}
}

// TestRejoinAfterLeave pins the Join→Leave→JoinVia round trip on one node:
// a member that left a running group must come back through the join
// protocol (state transfer at the survivors' frontier), not by
// re-bootstrapping an epoch-1 singleton that would collide with the
// survivors' advanced sequence spaces.
func TestRejoinAfterLeave(t *testing.T) {
	w, clk := virtualLAN(t, 47)
	members := []morpheus.NodeID{1, 2, 3}
	cols := make(map[morpheus.NodeID]*deliveries)
	nodes := make(map[morpheus.NodeID]*morpheus.Node)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, id := range members {
		id := id
		col := newDeliveries()
		cols[id] = col
		nd, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Fixed, Segments: []string{"lan"},
			Members:   members,
			Heartbeat: 30 * time.Millisecond,
			OnMessage: col.add,
		})
		if err != nil {
			t.Fatalf("start %d: %v", id, err)
		}
		nodes[id] = nd
	}

	// Phase 1: everyone casts; sequence spaces advance well past 1.
	const phase1 = 5
	for _, id := range members {
		for i := 0; i < phase1; i++ {
			if err := nodes[id].Send([]byte(fmt.Sprintf("p1:%d:%d", id, i))); err != nil {
				t.Fatalf("phase-1 send from %d: %v", id, err)
			}
		}
	}
	for _, id := range members {
		id := id
		waitFor(t, clk, 10*time.Second, fmt.Sprintf("node %d delivers phase 1", id), func() bool {
			return cols[id].countPrefix("p1:") >= len(members)*phase1
		})
	}

	// Phase 2: node 3 leaves; survivors keep casting without it.
	if err := nodes[3].Group(morpheus.DefaultGroup).Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if g := nodes[3].Group(morpheus.DefaultGroup); g != nil {
		t.Fatal("left group still installed")
	}
	const phase2 = 5
	for _, id := range []morpheus.NodeID{1, 2} {
		for i := 0; i < phase2; i++ {
			if err := nodes[id].Send([]byte(fmt.Sprintf("p2:%d:%d", id, i))); err != nil {
				t.Fatalf("phase-2 send from %d: %v", id, err)
			}
		}
	}
	for _, id := range []morpheus.NodeID{1, 2} {
		id := id
		waitFor(t, clk, 10*time.Second, fmt.Sprintf("survivor %d delivers phase 2", id), func() bool {
			return cols[id].countPrefix("p2:") >= 2*phase2
		})
	}

	// Phase 3: node 3 rejoins the same name through a seed. It must enter at
	// the survivors' frontier: no phase-1/phase-2 replay, full delivery of
	// everything cast after admission, its own casts delivered everywhere.
	rejoinCol := newDeliveries()
	g3, err := nodes[3].JoinVia(morpheus.DefaultGroup, 1, morpheus.GroupConfig{
		OnMessage: rejoinCol.add,
	})
	if err != nil {
		t.Fatalf("rejoin via seed: %v", err)
	}
	const phase3 = 5
	for _, id := range []morpheus.NodeID{1, 2} {
		for i := 0; i < phase3; i++ {
			if err := nodes[id].Send([]byte(fmt.Sprintf("p3:%d:%d", id, i))); err != nil {
				t.Fatalf("phase-3 send from %d: %v", id, err)
			}
		}
	}
	for i := 0; i < phase3; i++ {
		if err := g3.Send([]byte(fmt.Sprintf("p3:3:%d", i))); err != nil {
			t.Fatalf("phase-3 send from rejoined node: %v", err)
		}
	}
	wantP3 := 3 * phase3
	waitFor(t, clk, 15*time.Second, "rejoined node delivers phase 3", func() bool {
		return rejoinCol.countPrefix("p3:") >= wantP3
	})
	for _, id := range []morpheus.NodeID{1, 2} {
		id := id
		waitFor(t, clk, 15*time.Second, fmt.Sprintf("survivor %d delivers phase 3", id), func() bool {
			return cols[id].countPrefix("p3:") >= wantP3
		})
	}
	if n := rejoinCol.countPrefix("p1:") + rejoinCol.countPrefix("p2:"); n != 0 {
		t.Fatalf("rejoined node replayed %d historical casts", n)
	}
	for id, col := range cols {
		if dups := col.dups(); len(dups) > 0 {
			t.Fatalf("node %d duplicate deliveries: %v", id, dups)
		}
	}
	if dups := rejoinCol.dups(); len(dups) > 0 {
		t.Fatalf("rejoined node duplicate deliveries: %v", dups)
	}
}
