// Quickstart: three nodes on a simulated LAN exchange multicasts through
// the Morpheus group stack. This is the smallest complete use of the
// public API: build a world, start nodes, send, receive — plus the
// multi-group runtime: each node joins a second group ("telemetry") over
// the same endpoint and control plane, with traffic fully isolated from
// the default chat group.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"morpheus"
	"morpheus/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A deterministic virtual network with one wired segment. main is the
	// virtual clock's first actor: it waits only through clk, and its
	// defers close the nodes, then the world, then stop the clock (DESIGN.md
	// "Clock actors").
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(42, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})

	members := []morpheus.NodeID{1, 2, 3}

	var mu sync.Mutex
	received := make(map[morpheus.NodeID][]string)
	telemetry := make(map[morpheus.NodeID][]string)

	var nodes []*morpheus.Node
	for _, id := range members {
		id := id
		n, err := morpheus.Start(morpheus.Config{
			World:   w,
			ID:      id,
			Kind:    morpheus.Fixed,
			Members: members,
			OnMessage: func(from morpheus.NodeID, payload []byte) {
				mu.Lock()
				defer mu.Unlock()
				received[id] = append(received[id], fmt.Sprintf("%q from node %d", payload, from))
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = n.Close() }()

		// A node hosts any number of groups over one endpoint: the
		// telemetry group has its own stack, membership and epochs.
		if _, err := n.Join("telemetry", morpheus.GroupConfig{
			Members: members,
			OnMessage: func(from morpheus.NodeID, payload []byte) {
				mu.Lock()
				defer mu.Unlock()
				telemetry[id] = append(telemetry[id], fmt.Sprintf("%q from node %d", payload, from))
			},
		}); err != nil {
			return err
		}
		nodes = append(nodes, n)
	}

	// Every member multicasts one chat line into the default group and one
	// reading into the telemetry group; the reliable layer delivers each to
	// everyone (including the sender) exactly once, FIFO per sender — and
	// never across groups.
	for i, n := range nodes {
		if err := n.Send([]byte(fmt.Sprintf("hello from node %d", i+1))); err != nil {
			return err
		}
		if err := n.Group("telemetry").Send([]byte(fmt.Sprintf("cpu=%d%%", 10*(i+1)))); err != nil {
			return err
		}
	}

	// Wait until everyone has all three messages in both groups.
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		mu.Lock()
		done := true
		for _, id := range members {
			if len(received[id]) != 3 || len(telemetry[id]) != 3 {
				done = false
			}
		}
		mu.Unlock()
		if done {
			break
		}
		clk.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, id := range members {
		fmt.Printf("node %d received (chat):\n", id)
		for _, line := range received[id] {
			fmt.Printf("  %s\n", line)
		}
		fmt.Printf("node %d received (telemetry):\n", id)
		for _, line := range telemetry[id] {
			fmt.Printf("  %s\n", line)
		}
	}
	return nil
}
